//! `StatsDb` against the store it replaced.
//!
//! The traffic estimates used to live in an `FxHashMap` keyed by packed
//! pair id, with a fresh `FxHashSet` of the pairs seen in each window;
//! that store is kept below, unchanged, as the oracle. The key-sorted
//! columns that replaced it must give every cell the same updates with
//! the same operands, so after every window and every forget/retain the
//! traffic matrix and the executor loads must be equal bit for bit.
//!
//! Sequences are drawn from seeded [`DetRng`]s: new pairs, pairs absent
//! for a while and then returning, empty windows, zero readings, and
//! executors forgotten or retired in between, under EWMA with
//! α ∈ {0, 0.5, 1} and under the Holt estimator.

use std::collections::{BTreeMap, BTreeSet};
use tstorm::monitor::{Estimator, EstimatorFactory, HoltLinearEstimator, StatsDb, WindowSnapshot};
use tstorm::sched::TrafficMatrix;
use tstorm::types::{DetRng, ExecutorId, FxHashMap, FxHashSet, Mhz, SimTime};

const CASES: u64 = 240;

/// The previous store, copied as it was.
mod oracle {
    use super::*;

    enum Smoothing {
        Ewma { alpha: f64 },
        Custom(EstimatorFactory),
    }

    enum Cell {
        Ewma(f64),
        Custom(Box<dyn Estimator>),
    }

    impl Cell {
        fn fresh(smoothing: &Smoothing, sample: f64) -> Self {
            match smoothing {
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

    fn pair_key(from: ExecutorId, to: ExecutorId) -> u64 {
        (u64::from(from.index()) << 32) | u64::from(to.index())
    }

    fn unpack_pair(key: u64) -> (ExecutorId, ExecutorId) {
        (
            ExecutorId::new((key >> 32) as u32),
            ExecutorId::new(key as u32),
        )
    }

    pub struct HashDb {
        smoothing: Smoothing,
        workloads: Vec<Option<Cell>>,
        traffic: FxHashMap<u64, Cell>,
    }

    impl HashDb {
        pub fn new(alpha: f64) -> Self {
            Self::with(Smoothing::Ewma { alpha })
        }

        pub fn with_estimator(factory: EstimatorFactory) -> Self {
            Self::with(Smoothing::Custom(factory))
        }

        fn with(smoothing: Smoothing) -> Self {
            Self {
                smoothing,
                workloads: Vec::new(),
                traffic: FxHashMap::default(),
            }
        }

        pub fn ingest(&mut self, snapshot: &WindowSnapshot) {
            let period_micros = snapshot.period().as_micros();
            let mut cpu_seen: FxHashSet<u32> = FxHashSet::default();
            for (exec, cycles) in snapshot.cpu_readings() {
                let mhz = Mhz::from_cycles_over(cycles, period_micros);
                let idx = exec.as_usize();
                if idx >= self.workloads.len() {
                    self.workloads.resize_with(idx + 1, || None);
                }
                match &mut self.workloads[idx] {
                    Some(cell) => cell.update(&self.smoothing, mhz.get()),
                    slot @ None => *slot = Some(Cell::fresh(&self.smoothing, mhz.get())),
                }
                cpu_seen.insert(exec.index());
            }
            for (idx, cell) in self.workloads.iter_mut().enumerate() {
                if let Some(cell) = cell {
                    if !cpu_seen.contains(&(idx as u32)) {
                        cell.update(&self.smoothing, 0.0);
                    }
                }
            }

            let mut pair_seen: FxHashSet<u64> = FxHashSet::default();
            for (from, to, tuples) in snapshot.traffic_readings() {
                let rate = tuples as f64 / snapshot.period().as_secs_f64();
                let key = pair_key(from, to);
                match self.traffic.get_mut(&key) {
                    Some(cell) => cell.update(&self.smoothing, rate),
                    None => {
                        self.traffic.insert(key, Cell::fresh(&self.smoothing, rate));
                    }
                }
                pair_seen.insert(key);
            }
            for (key, cell) in &mut self.traffic {
                if !pair_seen.contains(key) {
                    cell.update(&self.smoothing, 0.0);
                }
            }
        }

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

        pub fn load_of(&self, executor: ExecutorId) -> Mhz {
            self.workloads
                .get(executor.as_usize())
                .and_then(|cell| cell.as_ref())
                .and_then(Cell::get)
                .map_or(Mhz::ZERO, |v| Mhz::new(v.max(0.0)))
        }

        pub fn traffic_matrix(&self) -> TrafficMatrix {
            let mut m = TrafficMatrix::new();
            for (key, cell) in &self.traffic {
                if let Some(rate) = cell.get() {
                    if rate > 1e-9 {
                        let (from, to) = unpack_pair(*key);
                        m.set(from, to, rate);
                    }
                }
            }
            m
        }

        pub fn forget_executor(&mut self, executor: ExecutorId) {
            if let Some(cell) = self.workloads.get_mut(executor.as_usize()) {
                *cell = None;
            }
            let id = executor.index();
            self.traffic
                .retain(|key, _| (*key >> 32) as u32 != id && *key as u32 != id);
        }

        pub fn retain_executors(&mut self, keep: &BTreeSet<ExecutorId>) {
            for (idx, cell) in self.workloads.iter_mut().enumerate() {
                if cell.is_some() && !keep.contains(&ExecutorId::new(idx as u32)) {
                    *cell = None;
                }
            }
            self.traffic.retain(|key, _| {
                let (from, to) = unpack_pair(*key);
                keep.contains(&from) && keep.contains(&to)
            });
        }

        pub fn is_empty(&self) -> bool {
            self.workloads.iter().all(Option::is_none) && self.traffic.is_empty()
        }
    }
}

/// The smoothing of one case: EWMA at α ∈ {0, 0.5, 1}, or Holt.
#[derive(Debug, Clone, Copy)]
enum Smoothing {
    Ewma(f64),
    Holt(f64, f64),
}

impl Smoothing {
    fn draw(rng: &mut DetRng) -> Self {
        match rng.below(4) {
            0 => Smoothing::Ewma(0.0),
            1 => Smoothing::Ewma(0.5),
            2 => Smoothing::Ewma(1.0),
            _ => Smoothing::Holt(rng.range_f64(0.0, 1.0), rng.range_f64(0.0, 1.0)),
        }
    }

    fn stores(self) -> (StatsDb, oracle::HashDb) {
        match self {
            Smoothing::Ewma(alpha) => (StatsDb::new(alpha), oracle::HashDb::new(alpha)),
            Smoothing::Holt(alpha, beta) => {
                let holt = move || -> EstimatorFactory {
                    Box::new(move || Box::new(HoltLinearEstimator::new(alpha, beta)))
                };
                (
                    StatsDb::with_estimator(holt()),
                    oracle::HashDb::with_estimator(holt()),
                )
            }
        }
    }
}

fn e(i: usize) -> ExecutorId {
    ExecutorId::new(i as u32)
}

/// One window over `n` executors. Each pair of the case's pool shows
/// up with probability `density`, so pairs come, go and come back; a
/// few windows are empty, and some readings are zero.
fn draw_window(
    rng: &mut DetRng,
    n: usize,
    pool: &[(usize, usize)],
    period: SimTime,
) -> WindowSnapshot {
    let mut snap = WindowSnapshot::new(period);
    if rng.below(8) == 0 {
        return snap;
    }
    let density = rng.uniform();
    for exec in 0..n {
        if rng.uniform() < density {
            let cycles = if rng.below(6) == 0 {
                0
            } else {
                rng.next_u64() % 20_000_000_000
            };
            snap.record_cpu(e(exec), cycles);
        }
    }
    for &(from, to) in pool {
        if rng.uniform() < density {
            let tuples = if rng.below(6) == 0 {
                0
            } else {
                rng.next_u64() % 50_000
            };
            snap.record_traffic(e(from), e(to), tuples);
        }
    }
    snap
}

fn assert_same(db: &StatsDb, oracle: &oracle::HashDb, n: usize, what: &str) {
    let bits = |m: TrafficMatrix| -> Vec<(u32, u32, u64)> {
        m.iter()
            .map(|(f, t, r)| (f.index(), t.index(), r.to_bits()))
            .collect()
    };
    assert_eq!(
        bits(db.traffic_matrix()),
        bits(oracle.traffic_matrix()),
        "traffic matrix differs ({what})"
    );
    for exec in 0..n + 2 {
        assert_eq!(
            db.load_of(e(exec)).get().to_bits(),
            oracle.load_of(e(exec)).get().to_bits(),
            "load of executor {exec} differs ({what})"
        );
    }
    let loads = |m: BTreeMap<ExecutorId, Mhz>| -> Vec<(u32, u64)> {
        m.into_iter()
            .map(|(k, v)| (k.index(), v.get().to_bits()))
            .collect()
    };
    assert_eq!(
        loads(db.executor_loads()),
        loads(oracle.executor_loads()),
        "executor loads differ ({what})"
    );
    assert_eq!(
        db.is_empty(),
        oracle.is_empty(),
        "emptiness differs ({what})"
    );
}

#[test]
fn key_sorted_store_matches_the_hash_store() {
    for case in 0..CASES {
        let mut rng = DetRng::seed_from(0x5747_5db0 ^ case);
        let smoothing = Smoothing::draw(&mut rng);
        let (mut db, mut oracle) = smoothing.stores();
        let n = 2 + rng.below(40);
        let pool: Vec<(usize, usize)> = (0..1 + rng.below(4 * n))
            .map(|_| (rng.below(n), rng.below(n)))
            .collect();
        let period = SimTime::from_secs(1 + rng.below(30) as u64);
        let windows = 4 + rng.below(24);
        for window in 0..windows {
            let snap = draw_window(&mut rng, n, &pool, period);
            db.ingest(&snap);
            oracle.ingest(&snap);
            let what = format!("case {case} ({smoothing:?}), window {window}");
            assert_same(&db, &oracle, n, &what);
            match rng.below(10) {
                0 => {
                    let gone = e(rng.below(n + 1));
                    db.forget_executor(gone);
                    oracle.forget_executor(gone);
                    assert_same(&db, &oracle, n, &format!("{what}, forgot {gone:?}"));
                }
                1 => {
                    let keep: BTreeSet<ExecutorId> =
                        (0..n + 1).filter(|_| rng.below(4) != 0).map(e).collect();
                    db.retain_executors(&keep);
                    oracle.retain_executors(&keep);
                    assert_same(&db, &oracle, n, &format!("{what}, retained {keep:?}"));
                }
                _ => {}
            }
        }
        assert_eq!(db.windows_ingested(), windows as u64);
    }
}

#[test]
fn retaining_nothing_empties_the_store() {
    let (mut db, mut oracle) = Smoothing::Ewma(0.5).stores();
    let mut rng = DetRng::seed_from(11);
    let pool: Vec<(usize, usize)> = (0..30).map(|i| (i % 7, (i * 3) % 11)).collect();
    for _ in 0..5 {
        let snap = draw_window(&mut rng, 12, &pool, SimTime::from_secs(20));
        db.ingest(&snap);
        oracle.ingest(&snap);
    }
    db.retain_executors(&BTreeSet::new());
    oracle.retain_executors(&BTreeSet::new());
    assert_same(&db, &oracle, 12, "retained nothing");
    assert!(db.is_empty());
}
