//! The estimates database between load monitors and schedule generator.
//!
//! In T-Storm the monitors write smoothed estimates into a database and
//! "the schedule generator periodically reads load information from the
//! database" — the decoupling that enables hot-swapping and flexible
//! deployment. [`StatsDb`] is that database.
//!
//! Storage is index-addressed and sparse. Workloads live in a dense
//! vector indexed by executor id (ids are minted sequentially). Pair
//! traffic lives in two parallel columns, `keys` and `cells`, sorted by
//! the packed pair id. A snapshot lists its pairs in that same order, so
//! one window is one merge walk over the columns: a window costs time in
//! proportion to the pairs stored plus the pairs observed, with no
//! hashing, and the traffic matrix is read off the columns in key
//! order. The default EWMA path stores its state inline as one `f64`
//! per cell — no per-pair `Box<dyn Estimator>` allocations — while the
//! custom-estimator extension point of Section IV-B boxes only when a
//! non-default factory is installed.

use crate::estimator::{Estimator, EstimatorFactory};
use crate::snapshot::WindowSnapshot;
use std::collections::{BTreeMap, BTreeSet};
use tstorm_sched::TrafficMatrix;
use tstorm_types::{ExecutorId, Mhz};

/// How estimates are smoothed: the paper's EWMA inline (the default,
/// allocation-free per cell) or a custom estimator factory.
enum Smoothing {
    /// `Y ← αY + (1 − α)·Sample`, state held inline in each cell.
    Ewma { alpha: f64 },
    /// One boxed estimator per cell from the given factory.
    Custom(EstimatorFactory),
}

/// One smoothed parameter's state.
enum Cell {
    /// Inline EWMA estimate (already initialised by its first sample).
    Ewma(f64),
    /// Custom estimator instance.
    Custom(Box<dyn Estimator>),
}

impl Cell {
    fn fresh(smoothing: &Smoothing, sample: f64) -> Self {
        match smoothing {
            // The first sample initialises Y directly (see [`crate::Ewma`]).
            Smoothing::Ewma { .. } => Cell::Ewma(sample),
            Smoothing::Custom(factory) => {
                let mut est = factory();
                est.update(sample);
                Cell::Custom(est)
            }
        }
    }

    fn update(&mut self, smoothing: &Smoothing, sample: f64) {
        match (self, smoothing) {
            (Cell::Ewma(y), Smoothing::Ewma { alpha }) => {
                *y = alpha * *y + (1.0 - alpha) * sample;
            }
            (Cell::Custom(est), _) => {
                est.update(sample);
            }
            // A database never mixes cell kinds: cells are only minted by
            // its own smoothing mode.
            (Cell::Ewma(_), Smoothing::Custom(_)) => unreachable!("ewma cell in custom db"),
        }
    }

    fn get(&self) -> Option<f64> {
        match self {
            Cell::Ewma(y) => Some(*y),
            Cell::Custom(est) => est.get(),
        }
    }
}

/// Packs a directed executor pair into one map key whose numeric order
/// equals (`from`, then `to`) order.
#[inline]
fn pair_key(from: ExecutorId, to: ExecutorId) -> u64 {
    (u64::from(from.index()) << 32) | u64::from(to.index())
}

#[inline]
fn unpack_pair(key: u64) -> (ExecutorId, ExecutorId) {
    (
        ExecutorId::new((key >> 32) as u32),
        ExecutorId::new(key as u32),
    )
}

/// Smoothed workload and traffic estimates for every executor and
/// executor pair observed so far.
///
/// Estimation defaults to the paper's EWMA but accepts any
/// [`Estimator`] through [`StatsDb::with_estimator`] — the "other
/// estimation/prediction methods can be easily integrated" extension
/// point of Section IV-B.
pub struct StatsDb {
    smoothing: Smoothing,
    /// Workload cells indexed by dense executor id; `None` = unknown.
    workloads: Vec<Option<Cell>>,
    /// Packed pair ids of the traffic cells, strictly ascending.
    keys: Vec<u64>,
    /// Traffic cells, parallel to `keys`.
    cells: Vec<Cell>,
    windows_ingested: u64,
}

impl std::fmt::Debug for StatsDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatsDb")
            .field("workloads", &self.workloads.iter().flatten().count())
            .field("traffic", &self.keys.len())
            .field("windows_ingested", &self.windows_ingested)
            .finish()
    }
}

impl StatsDb {
    /// Creates an empty database smoothing with the paper's EWMA at the
    /// given estimation coefficient.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `[0, 1]`.
    #[must_use]
    pub fn new(alpha: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&alpha),
            "alpha must be within [0, 1], got {alpha}"
        );
        Self::with_smoothing(Smoothing::Ewma { alpha })
    }

    /// Creates an empty database using a custom estimator per parameter.
    #[must_use]
    pub fn with_estimator(factory: EstimatorFactory) -> Self {
        Self::with_smoothing(Smoothing::Custom(factory))
    }

    fn with_smoothing(smoothing: Smoothing) -> Self {
        Self {
            smoothing,
            workloads: Vec::new(),
            keys: Vec::new(),
            cells: Vec::new(),
            windows_ingested: 0,
        }
    }

    /// Applies one monitoring window.
    ///
    /// Executors/pairs absent from the snapshot but present in the
    /// database receive a zero sample — an idle executor's estimate decays
    /// toward zero instead of staying stale, which matters when traffic
    /// shifts after a re-assignment.
    pub fn ingest(&mut self, snapshot: &WindowSnapshot) {
        let smoothing = &self.smoothing;

        // Readings come in executor order: cells skipped between two
        // readings (and after the last) are the absent ones.
        let period_micros = snapshot.period().as_micros();
        let mut next = 0;
        for (exec, cycles) in snapshot.cpu_readings() {
            let mhz = Mhz::from_cycles_over(cycles, period_micros).get();
            let idx = exec.as_usize();
            for cell in self.workloads.iter_mut().take(idx).skip(next).flatten() {
                cell.update(smoothing, 0.0);
            }
            if idx >= self.workloads.len() {
                self.workloads.resize_with(idx + 1, || None);
            }
            match &mut self.workloads[idx] {
                Some(cell) => cell.update(smoothing, mhz),
                slot @ None => *slot = Some(Cell::fresh(smoothing, mhz)),
            }
            next = idx + 1;
        }
        for cell in self.workloads.iter_mut().skip(next).flatten() {
            cell.update(smoothing, 0.0);
        }

        // Readings come in key order, like the columns: one merge walk
        // updates every stored cell once and collects the new pairs, in
        // key order, for the splice below.
        let secs = snapshot.period().as_secs_f64();
        let mut fresh: Vec<(u64, Cell)> = Vec::new();
        let mut i = 0;
        for (from, to, tuples) in snapshot.traffic_readings() {
            let rate = tuples as f64 / secs;
            let key = pair_key(from, to);
            while i < self.keys.len() && self.keys[i] < key {
                self.cells[i].update(smoothing, 0.0);
                i += 1;
            }
            if self.keys.get(i) == Some(&key) {
                self.cells[i].update(smoothing, rate);
                i += 1;
            } else {
                fresh.push((key, Cell::fresh(smoothing, rate)));
            }
        }
        for cell in &mut self.cells[i..] {
            cell.update(smoothing, 0.0);
        }
        self.splice(fresh);
        self.windows_ingested += 1;
    }

    /// Merges key-ordered new cells into the columns in place: both
    /// columns grow by the new cells' count, then fill from the back,
    /// so no second copy of the store is ever held.
    fn splice(&mut self, mut fresh: Vec<(u64, Cell)>) {
        if fresh.is_empty() {
            return;
        }
        let mut read = self.keys.len();
        let mut write = read + fresh.len();
        self.keys.resize(write, 0);
        // Placeholders, each replaced by a real cell before the loop ends.
        self.cells.resize_with(write, || Cell::Ewma(0.0));
        while let Some((key, cell)) = fresh.pop() {
            while read > 0 && self.keys[read - 1] > key {
                read -= 1;
                write -= 1;
                self.keys[write] = self.keys[read];
                self.cells.swap(read, write);
            }
            write -= 1;
            self.keys[write] = key;
            self.cells[write] = cell;
        }
    }

    /// Keeps only the traffic cells whose packed pair id passes `keep`,
    /// compacting both columns in place (key order is preserved).
    fn retain_pairs(&mut self, mut keep: impl FnMut(u64) -> bool) {
        let mut write = 0;
        for read in 0..self.keys.len() {
            let key = self.keys[read];
            if keep(key) {
                self.keys[write] = key;
                self.cells.swap(write, read);
                write += 1;
            }
        }
        self.keys.truncate(write);
        self.cells.truncate(write);
    }

    /// Estimated workload of every known executor (`l_i`), in executor
    /// order.
    #[must_use]
    pub fn executor_loads(&self) -> BTreeMap<ExecutorId, Mhz> {
        self.workloads
            .iter()
            .enumerate()
            .filter_map(|(i, cell)| {
                let v = cell.as_ref()?.get()?;
                Some((ExecutorId::new(i as u32), Mhz::new(v.max(0.0))))
            })
            .collect()
    }

    /// Estimated workload of one executor, zero if unknown.
    #[must_use]
    pub fn load_of(&self, executor: ExecutorId) -> Mhz {
        self.workloads
            .get(executor.as_usize())
            .and_then(|cell| cell.as_ref())
            .and_then(Cell::get)
            .map_or(Mhz::ZERO, |v| Mhz::new(v.max(0.0)))
    }

    /// Estimated traffic matrix (`<r_ii'>`, tuples/second). Pairs whose
    /// estimate has decayed to (near) zero are omitted. The columns are
    /// already in the matrix's key order, so it is bulk-built.
    #[must_use]
    pub fn traffic_matrix(&self) -> TrafficMatrix {
        self.keys
            .iter()
            .zip(&self.cells)
            .filter_map(|(key, cell)| {
                let rate = cell.get().filter(|rate| *rate > 1e-9)?;
                let (from, to) = unpack_pair(*key);
                Some((from, to, rate))
            })
            .collect()
    }

    /// Removes every estimate touching the given executor (topology
    /// killed / executor retired).
    pub fn forget_executor(&mut self, executor: ExecutorId) {
        if let Some(cell) = self.workloads.get_mut(executor.as_usize()) {
            *cell = None;
        }
        let id = executor.index();
        self.retain_pairs(|key| (key >> 32) as u32 != id && key as u32 != id);
    }

    /// Keeps only estimates touching the given executors — the bulk
    /// complement of [`StatsDb::forget_executor`], applied when a
    /// reassignment retires executors: stale workload entries and
    /// traffic pairs would otherwise keep steering the traffic-aware
    /// scheduler toward executors that no longer exist.
    pub fn retain_executors(&mut self, keep: &BTreeSet<ExecutorId>) {
        let mut kept = vec![false; keep.last().map_or(0, |e| e.as_usize() + 1)];
        for e in keep {
            kept[e.as_usize()] = true;
        }
        let is_kept = |id: u32| kept.get(id as usize).copied().unwrap_or(false);
        for (idx, cell) in self.workloads.iter_mut().enumerate() {
            if !is_kept(idx as u32) {
                *cell = None;
            }
        }
        self.retain_pairs(|key| is_kept((key >> 32) as u32) && is_kept(key as u32));
    }

    /// Number of windows ingested so far — the schedule generator uses
    /// this to tell "no data yet" from "idle cluster".
    #[must_use]
    pub fn windows_ingested(&self) -> u64 {
        self.windows_ingested
    }

    /// True if no estimates exist.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.workloads.iter().all(Option::is_none) && self.keys.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::HoltLinearEstimator;
    use tstorm_types::SimTime;

    fn e(i: u32) -> ExecutorId {
        ExecutorId::new(i)
    }

    fn snap(cpu: &[(u32, u64)], traffic: &[(u32, u32, u64)]) -> WindowSnapshot {
        let mut s = WindowSnapshot::new(SimTime::from_secs(20));
        for (ex, cycles) in cpu {
            s.record_cpu(e(*ex), *cycles);
        }
        for (f, t, n) in traffic {
            s.record_traffic(e(*f), e(*t), *n);
        }
        s
    }

    #[test]
    fn cpu_cycles_become_mhz() {
        let mut db = StatsDb::new(0.5);
        // 8e9 cycles over 20s = 400 MHz.
        db.ingest(&snap(&[(0, 8_000_000_000)], &[]));
        assert!((db.load_of(e(0)).get() - 400.0).abs() < 1e-9);
        assert_eq!(db.windows_ingested(), 1);
    }

    #[test]
    fn tuple_counts_become_rates() {
        let mut db = StatsDb::new(0.5);
        db.ingest(&snap(&[], &[(0, 1, 4000)]));
        let m = db.traffic_matrix();
        assert!((m.get(e(0), e(1)) - 200.0).abs() < 1e-9); // 4000/20s
    }

    #[test]
    fn ewma_smooths_across_windows() {
        let mut db = StatsDb::new(0.5);
        db.ingest(&snap(&[(0, 8_000_000_000)], &[])); // 400 MHz
        db.ingest(&snap(&[(0, 16_000_000_000)], &[])); // sample 800 MHz
                                                       // Y = 0.5*400 + 0.5*800 = 600.
        assert!((db.load_of(e(0)).get() - 600.0).abs() < 1e-9);
    }

    #[test]
    fn absent_readings_decay_to_zero() {
        let mut db = StatsDb::new(0.5);
        db.ingest(&snap(&[(0, 8_000_000_000)], &[(0, 1, 4000)]));
        db.ingest(&snap(&[], &[]));
        assert!((db.load_of(e(0)).get() - 200.0).abs() < 1e-9);
        db.ingest(&snap(&[], &[]));
        db.ingest(&snap(&[], &[]));
        assert!(db.load_of(e(0)).get() < 100.0);
        // Traffic decays too and eventually drops out of the matrix.
        for _ in 0..40 {
            db.ingest(&snap(&[], &[]));
        }
        assert!(db.traffic_matrix().is_empty());
    }

    #[test]
    fn unknown_executor_has_zero_load() {
        let db = StatsDb::new(0.5);
        assert_eq!(db.load_of(e(9)), Mhz::ZERO);
        assert!(db.is_empty());
    }

    #[test]
    fn forget_executor_removes_estimates() {
        let mut db = StatsDb::new(0.5);
        db.ingest(&snap(&[(0, 1000), (1, 1000)], &[(0, 1, 10), (1, 0, 10)]));
        db.forget_executor(e(0));
        assert_eq!(db.load_of(e(0)), Mhz::ZERO);
        assert!(db.executor_loads().contains_key(&e(1)));
        assert!(db.traffic_matrix().is_empty());
    }

    #[test]
    fn retain_executors_drops_stale_pairs() {
        let mut db = StatsDb::new(0.5);
        db.ingest(&snap(
            &[(0, 1000), (1, 1000), (2, 1000)],
            &[(0, 1, 100), (1, 2, 100), (2, 0, 100)],
        ));
        let keep: BTreeSet<ExecutorId> = [e(0), e(1)].into_iter().collect();
        db.retain_executors(&keep);
        let m = db.traffic_matrix();
        assert!(m.get(e(0), e(1)) > 0.0, "kept pair survives");
        assert_eq!(m.get(e(1), e(2)), 0.0, "pair touching removed executor");
        assert_eq!(m.get(e(2), e(0)), 0.0, "pair touching removed executor");
        assert_eq!(db.load_of(e(2)), Mhz::ZERO);
        assert!(db.executor_loads().contains_key(&e(0)));
        assert!(db.executor_loads().contains_key(&e(1)));
    }

    #[test]
    fn custom_estimator_path_still_boxes_per_cell() {
        let mut db =
            StatsDb::with_estimator(Box::new(|| Box::new(HoltLinearEstimator::new(0.5, 0.5))));
        db.ingest(&snap(&[(0, 8_000_000_000)], &[(0, 1, 4000)]));
        assert!((db.load_of(e(0)).get() - 400.0).abs() < 1e-9);
        assert!((db.traffic_matrix().get(e(0), e(1)) - 200.0).abs() < 1e-9);
        // Second window exercises the custom update path (Holt ramps).
        db.ingest(&snap(&[(0, 16_000_000_000)], &[(0, 1, 8000)]));
        assert!(db.load_of(e(0)).get() > 600.0, "holt anticipates the ramp");
    }

    #[test]
    fn executor_loads_iterate_in_id_order() {
        let mut db = StatsDb::new(0.5);
        db.ingest(&snap(&[(7, 1000), (2, 1000), (5, 1000)], &[]));
        let ids: Vec<u32> = db.executor_loads().keys().map(|e| e.index()).collect();
        assert_eq!(ids, vec![2, 5, 7]);
    }

    #[test]
    #[should_panic(expected = "alpha must be within")]
    fn invalid_alpha_panics() {
        let _ = StatsDb::new(-0.1);
    }
}
