//! Host-speed calibration with a fixed reference computation.
//!
//! Shared hosts run the same code 20% and more slower or faster from one
//! second or minute to the next (neighbours contending for the cores'
//! shared resources, caches and memory). The benchmark times this loop
//! before every measured run and after every monitor period of it, and
//! scales the run's wall time by the mean of those samples, so a slow
//! phase of the host stretches both and cancels out, while a change to
//! the program moves only the run. The loop uses the standard library
//! alone, never the program's code, so no program change can speed it
//! up.

use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;
use tstorm_core::TStormSystem;
use tstorm_types::SimTime;

/// Median wall seconds of one timed pass on the reference host (a
/// 2-core 2.1 GHz x86-64 VM). Calibrated times read as seconds on that
/// host.
pub const REFERENCE_S: f64 = 0.0055;

/// Entries of the loop's heap (512 KiB) and of its table (8 MiB). The
/// table outgrows the per-core cache, so like the simulator's event
/// queue, slabs and per-pair maps the loop feels contention for the
/// shared cache and memory, not only the core's speed.
const HEAP_ENTRIES: usize = 1 << 16;
const TABLE_ENTRIES: usize = 1 << 20;

/// The reference loop's storage, allocated once so that the timing
/// depends on neither the allocator's state nor a per-process hash
/// seed, and samples of the loop taken through one invocation.
pub struct HostSpeed {
    heap: BinaryHeap<u64>,
    table: Vec<u64>,
    samples: Vec<f64>,
}

impl Default for HostSpeed {
    fn default() -> Self {
        Self {
            heap: BinaryHeap::with_capacity(HEAP_ENTRIES),
            table: vec![0; TABLE_ENTRIES],
            samples: Vec::new(),
        }
    }
}

impl HostSpeed {
    /// One pass: a fixed pseudo-random stream pushed through the heap,
    /// each value also bumping a table slot.
    fn pass(&mut self) {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for i in 0..HEAP_ENTRIES as u64 {
            // xorshift64, then a multiplicative hash into the table.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.heap.push(x);
            let slot = (x.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 44) as usize;
            self.table[slot] = self.table[slot].wrapping_add(i);
        }
        while let Some(v) = self.heap.pop() {
            let slot = (v.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 44) as usize;
            self.table[slot] ^= v;
        }
        black_box(&self.table);
    }

    /// Times one pass after an untimed one that brings the loop's
    /// storage back into cache.
    pub fn sample(&mut self) {
        self.pass();
        let start = Instant::now();
        self.pass();
        self.samples.push(start.elapsed().as_secs_f64());
    }

    /// Marks the samples taken from now on, for [`Self::scale_since`].
    pub fn mark(&self) -> usize {
        self.samples.len()
    }

    /// The factor that scales wall times measured since `mark` to the
    /// reference host: [`REFERENCE_S`] over the mean of the samples
    /// taken since.
    pub fn scale_since(&self, mark: usize) -> f64 {
        let since = &self.samples[mark..];
        REFERENCE_S * since.len() as f64 / since.iter().sum::<f64>()
    }

    /// The median of every sample, in milliseconds.
    pub fn median_ms(&self) -> f64 {
        crate::median(&self.samples) * 1e3
    }

    /// Runs `system` to `horizon` with one `run_until` call per monitor
    /// period, sampling the loop before the first call and after each.
    /// Returns the calls' total wall seconds scaled to the reference
    /// host by those samples, and unscaled.
    pub fn run_to_horizon(
        &mut self,
        system: &mut TStormSystem,
        horizon: SimTime,
        period: SimTime,
    ) -> (f64, f64) {
        let mark = self.mark();
        self.sample();
        let mut wall = 0.0;
        let mut until = period.min(horizon);
        loop {
            let start = Instant::now();
            system.run_until(until).expect("runs");
            wall += start.elapsed().as_secs_f64();
            self.sample();
            if until == horizon {
                return (wall * self.scale_since(mark), wall);
            }
            until = (until + period).min(horizon);
        }
    }
}
