//! User logic: the spout/bolt API (Storm's `nextTuple` / `execute`).
//!
//! Workloads implement [`SpoutLogic`] and [`BoltLogic`]; the same logic
//! runs unchanged under every scheduler — T-Storm's *user transparency*
//! property. Logic must be `Send`: the engine itself is `Send` (so whole
//! simulations can move across threads, as the sweep harness relies
//! on), which means logic shares substrate handles (queues, stores) via
//! `Arc<Mutex<…>>`.

use tstorm_topology::Value;
use tstorm_types::SimTime;

/// A stream source (Storm's `ISpout::nextTuple`).
pub trait SpoutLogic {
    /// Produces the next tuple's values, or `None` when the source has
    /// nothing available right now (the executor retries after the
    /// configured idle delay).
    fn next_tuple(&mut self, now: SimTime) -> Option<Vec<Value>>;
}

/// A stream processor (Storm's `IBolt::execute`).
pub trait BoltLogic {
    /// Processes one input tuple; call `emit` for each output tuple. All
    /// emitted tuples are anchored to the input's root and routed along
    /// every outgoing stream edge of the component.
    fn execute(&mut self, input: &[Value], emit: &mut dyn FnMut(Vec<Value>));
}

/// The executable attached to one executor.
pub enum ExecutorLogic {
    /// A spout executor.
    Spout(Box<dyn SpoutLogic + Send>),
    /// A bolt executor.
    Bolt(Box<dyn BoltLogic + Send>),
    /// A system acker executor (behaviour is built into the engine).
    Acker,
}

impl ExecutorLogic {
    /// Convenience wrapper for spout logic.
    #[must_use]
    pub fn spout(logic: impl SpoutLogic + Send + 'static) -> Self {
        ExecutorLogic::Spout(Box::new(logic))
    }

    /// Convenience wrapper for bolt logic.
    #[must_use]
    pub fn bolt(logic: impl BoltLogic + Send + 'static) -> Self {
        ExecutorLogic::Bolt(Box::new(logic))
    }
}

impl std::fmt::Debug for ExecutorLogic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecutorLogic::Spout(_) => f.write_str("ExecutorLogic::Spout"),
            ExecutorLogic::Bolt(_) => f.write_str("ExecutorLogic::Bolt"),
            ExecutorLogic::Acker => f.write_str("ExecutorLogic::Acker"),
        }
    }
}

/// A spout that emits the same string forever — the simplest possible
/// source, used in examples and tests.
#[derive(Debug, Clone)]
pub struct ConstSpout {
    value: String,
    emitted: u64,
}

impl ConstSpout {
    /// Creates a spout that always emits `value`.
    #[must_use]
    pub fn new(value: impl Into<String>) -> Self {
        Self {
            value: value.into(),
            emitted: 0,
        }
    }

    /// Number of tuples emitted so far.
    #[must_use]
    pub fn emitted(&self) -> u64 {
        self.emitted
    }
}

impl SpoutLogic for ConstSpout {
    fn next_tuple(&mut self, _now: SimTime) -> Option<Vec<Value>> {
        self.emitted += 1;
        Some(vec![Value::str(&self.value)])
    }
}

/// A bolt that forwards its input unchanged — the Throughput Test's
/// "identity bolt".
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityBolt {
    forwarded: u64,
}

impl IdentityBolt {
    /// Creates the bolt.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Tuples forwarded so far.
    #[must_use]
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }
}

impl BoltLogic for IdentityBolt {
    fn execute(&mut self, input: &[Value], emit: &mut dyn FnMut(Vec<Value>)) {
        self.forwarded += 1;
        emit(input.to_vec());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_spout_always_emits() {
        let mut s = ConstSpout::new("x");
        for _ in 0..5 {
            let v = s.next_tuple(SimTime::ZERO).expect("emits");
            assert_eq!(v[0].as_str(), Some("x"));
        }
        assert_eq!(s.emitted(), 5);
    }

    #[test]
    fn identity_bolt_forwards() {
        let mut b = IdentityBolt::new();
        let mut out = Vec::new();
        b.execute(&[Value::Int(7)], &mut |v| out.push(v));
        assert_eq!(out, vec![vec![Value::Int(7)]]);
        assert_eq!(b.forwarded(), 1);
    }

    #[test]
    fn wrappers_construct_variants() {
        assert!(matches!(
            ExecutorLogic::spout(ConstSpout::new("a")),
            ExecutorLogic::Spout(_)
        ));
        assert!(matches!(
            ExecutorLogic::bolt(IdentityBolt::new()),
            ExecutorLogic::Bolt(_)
        ));
        let dbg = format!("{:?}", ExecutorLogic::Acker);
        assert!(dbg.contains("Acker"));
    }
}
