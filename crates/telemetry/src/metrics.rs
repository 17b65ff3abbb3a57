//! Counter, bank, and histogram handles plus the global registry,
//! [`Snapshot`] machinery, and the thread-local [`scoped`] capture used
//! for per-job metric isolation.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, Once};

use crate::counters_on;

/// Anything that can fold its current values into a snapshot map.
///
/// Emission is *additive*: two sources sharing a metric name contribute
/// to one reported value.
trait Source: Sync {
    fn emit(&self, out: &mut BTreeMap<String, u64>);
    fn reset(&self);
    /// Snapshot key for one cell of this source (cell 0 for plain
    /// counters). Must match the keys [`Source::emit`] produces so scoped
    /// captures and global snapshots agree name-for-name.
    fn cell_key(&self, cell: usize) -> String;
}

// ---------------------------------------------------------------------------
// Thread-local scoped capture
// ---------------------------------------------------------------------------

/// How a scoped cell folds into totals: summed, or max-combined (a
/// histogram's running maximum).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Fold {
    Add,
    Max,
}

struct LocalCell {
    src: &'static dyn Source,
    cell: usize,
    fold: Fold,
    value: u64,
}

/// One active [`scoped`] frame: deltas recorded by *this thread* since
/// the frame opened, keyed by (source address, cell index).
type LocalFrame = HashMap<(usize, usize), LocalCell>;

thread_local! {
    /// Stack of active capture frames on this thread (empty almost
    /// always; one deep inside a serve worker's job).
    static LOCAL: RefCell<Vec<LocalFrame>> = const { RefCell::new(Vec::new()) };
    /// Fast flag mirroring `!LOCAL.is_empty()` so the hot path pays one
    /// thread-local load when no scope is active.
    static LOCAL_ACTIVE: Cell<bool> = const { Cell::new(false) };
}

#[inline]
fn local_record(src: &'static dyn Source, cell: usize, fold: Fold, v: u64) {
    if !LOCAL_ACTIVE.with(Cell::get) {
        return;
    }
    LOCAL.with(|frames| {
        if let Some(frame) = frames.borrow_mut().last_mut() {
            let key = (std::ptr::from_ref(src) as *const () as usize, cell);
            let entry = frame
                .entry(key)
                .or_insert(LocalCell { src, cell, fold, value: 0 });
            match fold {
                Fold::Add => entry.value += v,
                Fold::Max => entry.value = entry.value.max(v),
            }
        }
    });
}

/// Restores the frame stack even when the scoped closure panics, folding
/// the aborted frame's deltas into the enclosing frame (if any) so nested
/// scopes stay additive.
struct ScopeGuard;

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        LOCAL.with(|frames| {
            let mut frames = frames.borrow_mut();
            if let Some(frame) = frames.pop() {
                if let Some(outer) = frames.last_mut() {
                    for (key, cell) in frame {
                        let entry = outer.entry(key).or_insert(LocalCell {
                            src: cell.src,
                            cell: cell.cell,
                            fold: cell.fold,
                            value: 0,
                        });
                        match cell.fold {
                            Fold::Add => entry.value += cell.value,
                            Fold::Max => entry.value = entry.value.max(cell.value),
                        }
                    }
                }
            }
            LOCAL_ACTIVE.with(|a| a.set(!frames.is_empty()));
        });
    }
}

/// Run `f` and return its result together with a [`Snapshot`] of every
/// metric *this thread* recorded while it ran.
///
/// This is the per-job isolation primitive behind `tangled-serve`: each
/// worker wraps one job in a scope, so concurrent jobs on other threads
/// never leak into each other's snapshots, and the same job yields a
/// byte-identical snapshot at any worker count. Keys match the global
/// registry's names, so scoped snapshots merge with
/// [`Snapshot::merge_from`] exactly like registry snapshots.
///
/// Scopes nest: an inner scope captures its own deltas *and* folds them
/// back into the enclosing scope when it closes. Recording still requires
/// counters to be enabled ([`crate::Mode::Counters`] or above); under
/// [`crate::Mode::Off`] the returned snapshot is empty and the scope
/// costs nothing on the instrumentation hot path.
pub fn scoped<R>(f: impl FnOnce() -> R) -> (R, Snapshot) {
    LOCAL.with(|frames| frames.borrow_mut().push(HashMap::new()));
    LOCAL_ACTIVE.with(|a| a.set(true));
    let guard = ScopeGuard;
    let result = f();
    // Read the frame's contents before the guard pops it (the guard also
    // runs on panic; on the normal path we harvest first).
    let snapshot = LOCAL.with(|frames| {
        let frames = frames.borrow();
        let mut counters = BTreeMap::new();
        if let Some(frame) = frames.last() {
            for cell in frame.values() {
                let key = cell.src.cell_key(cell.cell);
                let slot = counters.entry(key).or_insert(0u64);
                match cell.fold {
                    Fold::Add => *slot += cell.value,
                    Fold::Max => *slot = (*slot).max(cell.value),
                }
            }
        }
        Snapshot { counters }
    });
    drop(guard);
    (result, snapshot)
}

/// Global list of every handle that has recorded at least once.
static SOURCES: Mutex<Vec<&'static (dyn Source + 'static)>> = Mutex::new(Vec::new());

fn register(src: &'static (dyn Source + 'static)) {
    SOURCES.lock().unwrap().push(src);
}

pub(crate) fn reset_registered() {
    for src in SOURCES.lock().unwrap().iter() {
        src.reset();
    }
}

#[inline]
fn add_to(out: &mut BTreeMap<String, u64>, name: String, v: u64) {
    *out.entry(name).or_insert(0) += v;
}

/// A monotonically increasing event counter with a static name.
///
/// Declare as a `static` and call [`Counter::add`] from hot paths; the
/// call is a no-op unless telemetry is enabled.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: Once,
}

impl Counter {
    /// A new counter handle. `name` should be a dotted path such as
    /// `"tangled.branch.taken"`; it becomes the `metrics.json` key.
    pub const fn new(name: &'static str) -> Self {
        Counter { name, value: AtomicU64::new(0), registered: Once::new() }
    }

    /// Add `n` (registering the counter on first use). No-op when off.
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !counters_on() {
            return;
        }
        self.registered.call_once(|| register(self));
        self.value.fetch_add(n, Ordering::Relaxed);
        local_record(self, 0, Fold::Add, n);
    }

    /// Add one. No-op when telemetry is off.
    #[inline]
    pub fn inc(&'static self) {
        self.add(1);
    }

    /// Current value (0 until the first enabled `add`).
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

impl Source for Counter {
    fn emit(&self, out: &mut BTreeMap<String, u64>) {
        add_to(out, self.name.to_string(), self.value.load(Ordering::Relaxed));
    }
    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
    fn cell_key(&self, _cell: usize) -> String {
        self.name.to_string()
    }
}

/// A fixed-size array of counters indexed by a dense id (opcode kind,
/// gate kind, …), reported as `<name>.<label(i)>` for each non-zero cell.
///
/// The labeler runs only at snapshot time, never on the hot path.
pub struct CounterBank<const N: usize> {
    name: &'static str,
    label: fn(usize) -> &'static str,
    cells: [AtomicU64; N],
    registered: Once,
}

impl<const N: usize> CounterBank<N> {
    /// A new bank; cell `i` is reported as `"<name>.<label(i)>"`.
    pub const fn new(name: &'static str, label: fn(usize) -> &'static str) -> Self {
        CounterBank {
            name,
            label,
            cells: [const { AtomicU64::new(0) }; N],
            registered: Once::new(),
        }
    }

    /// Add `n` to cell `i`. No-op when telemetry is off.
    #[inline]
    pub fn add(&'static self, i: usize, n: u64) {
        if !counters_on() {
            return;
        }
        self.registered.call_once(|| register(self));
        self.cells[i].fetch_add(n, Ordering::Relaxed);
        local_record(self, i, Fold::Add, n);
    }

    /// Current value of cell `i`.
    pub fn get(&self, i: usize) -> u64 {
        self.cells[i].load(Ordering::Relaxed)
    }
}

impl<const N: usize> Source for CounterBank<N> {
    fn emit(&self, out: &mut BTreeMap<String, u64>) {
        for (i, cell) in self.cells.iter().enumerate() {
            let v = cell.load(Ordering::Relaxed);
            if v != 0 {
                add_to(out, format!("{}.{}", self.name, (self.label)(i)), v);
            }
        }
    }
    fn reset(&self) {
        for cell in &self.cells {
            cell.store(0, Ordering::Relaxed);
        }
    }
    fn cell_key(&self, cell: usize) -> String {
        format!("{}.{}", self.name, (self.label)(cell))
    }
}

/// A last-write-wins level meter with a static name: queue depth,
/// in-flight jobs, busy workers.
///
/// Unlike a [`Counter`], a gauge moves in both directions. It reports two
/// keys: `<name>` (the instantaneous level at snapshot time, additive
/// across same-named handles) and `<name>.max` (the high-water mark,
/// which max-merges in [`Snapshot::merge_from`], so merged gauge
/// snapshots are permutation-invariant regardless of worker count or
/// completion order). Scoped captures record only the `.max` cell — an
/// instantaneous level is a property of the process, not of one job.
pub struct Gauge {
    name: &'static str,
    value: AtomicU64,
    hwm: AtomicU64,
    registered: Once,
}

impl Gauge {
    /// High-water-mark cell index for scoped capture (cell 0 is the
    /// instantaneous level, which scopes do not record).
    const MAX_CELL: usize = 1;

    /// A new gauge handle. `name` becomes the `metrics.json` key; the
    /// high-water mark is reported as `<name>.max`.
    pub const fn new(name: &'static str) -> Self {
        Gauge {
            name,
            value: AtomicU64::new(0),
            hwm: AtomicU64::new(0),
            registered: Once::new(),
        }
    }

    #[inline]
    fn note_level(&'static self, level: u64) {
        self.hwm.fetch_max(level, Ordering::Relaxed);
        local_record(self, Self::MAX_CELL, Fold::Max, level);
    }

    /// Set the level to `v`. No-op when telemetry is off.
    #[inline]
    pub fn set(&'static self, v: u64) {
        if !counters_on() {
            return;
        }
        self.registered.call_once(|| register(self));
        self.value.store(v, Ordering::Relaxed);
        self.note_level(v);
    }

    /// Raise the level by `n`. No-op when telemetry is off.
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !counters_on() {
            return;
        }
        self.registered.call_once(|| register(self));
        let level = self.value.fetch_add(n, Ordering::Relaxed) + n;
        self.note_level(level);
    }

    /// Raise the level by one. No-op when telemetry is off.
    #[inline]
    pub fn inc(&'static self) {
        self.add(1);
    }

    /// Lower the level by `n`, saturating at 0. No-op when telemetry is
    /// off.
    #[inline]
    pub fn sub(&'static self, n: u64) {
        if !counters_on() {
            return;
        }
        self.registered.call_once(|| register(self));
        let _ = self
            .value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v.saturating_sub(n)));
    }

    /// Lower the level by one. No-op when telemetry is off.
    #[inline]
    pub fn dec(&'static self) {
        self.sub(1);
    }

    /// Current level (0 until the first enabled update).
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// High-water mark since the last reset.
    pub fn high_water_mark(&self) -> u64 {
        self.hwm.load(Ordering::Relaxed)
    }
}

impl Source for Gauge {
    fn emit(&self, out: &mut BTreeMap<String, u64>) {
        add_to(out, self.name.to_string(), self.value.load(Ordering::Relaxed));
        add_to(out, format!("{}.max", self.name), self.hwm.load(Ordering::Relaxed));
    }
    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
        self.hwm.store(0, Ordering::Relaxed);
    }
    fn cell_key(&self, cell: usize) -> String {
        match cell {
            Self::MAX_CELL => format!("{}.max", self.name),
            _ => self.name.to_string(),
        }
    }
}

/// Number of power-of-two buckets in a [`Histogram`] (`le_1` … `le_32768`
/// plus an overflow bucket).
pub const HISTOGRAM_BUCKETS: usize = 17;

/// Upper-bound quantile estimate from a power-of-two bucket array (the
/// [`Histogram`] layout: bucket `k` holds samples with
/// `2^(k-1) < v <= 2^k`, bucket 0 holds `v <= 1`, the last bucket is the
/// overflow).
///
/// `pct` is a percentage in `1..=100`. The result is the upper bound of
/// the bucket containing the `ceil(count * pct / 100)`-th sample, clamped
/// to `max` (the recorded maximum, which is also the answer when the
/// target lands in the overflow bucket). Pure integer arithmetic, so the
/// same buckets always yield the same byte. Returns 0 for an empty
/// histogram.
pub fn bucket_quantile(buckets: &[u64; HISTOGRAM_BUCKETS], max: u64, pct: u64) -> u64 {
    let count: u64 = buckets.iter().sum();
    if count == 0 {
        return 0;
    }
    let target = (count * pct).div_ceil(100).max(1);
    let mut cum = 0u64;
    for (k, &b) in buckets.iter().enumerate() {
        cum += b;
        if cum >= target {
            if k == HISTOGRAM_BUCKETS - 1 {
                return max;
            }
            return (1u64 << k).min(max);
        }
    }
    max
}

/// Windowed quantiles derived from one histogram family in a
/// [`Snapshot`] (see [`Snapshot::histogram_quantiles`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistQuantiles {
    /// Total samples in the family.
    pub count: u64,
    /// Median upper bound.
    pub p50: u64,
    /// 95th-percentile upper bound.
    pub p95: u64,
    /// 99th-percentile upper bound.
    pub p99: u64,
}

/// A power-of-two-bucketed histogram of `u64` samples.
///
/// Reported as `<name>.count`, `<name>.sum`, `<name>.max`, and one
/// `<name>.le_<2^k>` key per non-empty bucket (`<name>.inf` for
/// overflow). Buckets are per-bucket counts, not cumulative.
pub struct Histogram {
    name: &'static str,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    registered: Once,
}

impl Histogram {
    /// Scoped-capture cell indices for the derived statistics (buckets
    /// occupy cells `0..HISTOGRAM_BUCKETS`).
    const COUNT_CELL: usize = HISTOGRAM_BUCKETS;
    const SUM_CELL: usize = HISTOGRAM_BUCKETS + 1;
    const MAX_CELL: usize = HISTOGRAM_BUCKETS + 2;

    /// A new histogram handle.
    pub const fn new(name: &'static str) -> Self {
        Histogram {
            name,
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            registered: Once::new(),
        }
    }

    /// Record one sample. No-op when telemetry is off.
    #[inline]
    pub fn record(&'static self, v: u64) {
        if !counters_on() {
            return;
        }
        self.registered.call_once(|| register(self));
        // Bucket k holds samples with 2^(k-1) < v <= 2^k; bucket 0 holds
        // v <= 1; the last bucket is the overflow.
        let k = (64 - v.saturating_sub(1).leading_zeros()) as usize;
        let k = k.min(HISTOGRAM_BUCKETS - 1);
        self.buckets[k].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        local_record(self, k, Fold::Add, 1);
        local_record(self, Self::COUNT_CELL, Fold::Add, 1);
        local_record(self, Self::SUM_CELL, Fold::Add, v);
        local_record(self, Self::MAX_CELL, Fold::Max, v);
    }
}

impl Source for Histogram {
    fn emit(&self, out: &mut BTreeMap<String, u64>) {
        add_to(out, format!("{}.count", self.name), self.count.load(Ordering::Relaxed));
        add_to(out, format!("{}.sum", self.name), self.sum.load(Ordering::Relaxed));
        add_to(out, format!("{}.max", self.name), self.max.load(Ordering::Relaxed));
        for (k, bucket) in self.buckets.iter().enumerate() {
            let v = bucket.load(Ordering::Relaxed);
            if v != 0 {
                let key = if k == HISTOGRAM_BUCKETS - 1 {
                    format!("{}.inf", self.name)
                } else {
                    format!("{}.le_{}", self.name, 1u64 << k)
                };
                add_to(out, key, v);
            }
        }
    }
    fn reset(&self) {
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
    fn cell_key(&self, cell: usize) -> String {
        match cell {
            Self::COUNT_CELL => format!("{}.count", self.name),
            Self::SUM_CELL => format!("{}.sum", self.name),
            Self::MAX_CELL => format!("{}.max", self.name),
            k if k == HISTOGRAM_BUCKETS - 1 => format!("{}.inf", self.name),
            k => format!("{}.le_{}", self.name, 1u64 << k),
        }
    }
}

/// A point-in-time copy of every registered metric, keyed by name.
///
/// Keys are sorted (`BTreeMap`), so iteration and the JSON exporters are
/// deterministic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    counters: BTreeMap<String, u64>,
}

impl Snapshot {
    /// Snapshot every registered handle right now.
    pub fn take() -> Snapshot {
        let mut counters = BTreeMap::new();
        for src in SOURCES.lock().unwrap().iter() {
            src.emit(&mut counters);
        }
        Snapshot { counters }
    }

    /// Build a snapshot from explicit `(name, value)` pairs. Later
    /// duplicates of a name overwrite earlier ones. This is the
    /// test/tooling constructor; live snapshots come from
    /// [`Snapshot::take`] or [`scoped`].
    pub fn from_pairs<K: Into<String>>(pairs: impl IntoIterator<Item = (K, u64)>) -> Snapshot {
        Snapshot { counters: pairs.into_iter().map(|(k, v)| (k.into(), v)).collect() }
    }

    /// `self - base`, per key (saturating at 0). Keys only in `base`
    /// are dropped; keys only in `self` keep their full value. Zero
    /// values are retained so exported schemas stay stable.
    pub fn delta(&self, base: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), v.saturating_sub(base.get(k))))
            .collect();
        Snapshot { counters }
    }

    /// Value for `name`, or 0 if absent.
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Fold `other` into `self`, additively by name — the serve layer's
    /// snapshot merge. Histogram running maxima (keys ending in `.max`)
    /// combine with `max` instead of `+`; both operations are commutative
    /// and associative, so merging any permutation of the same snapshots
    /// yields an identical result.
    pub fn merge_from(&mut self, other: &Snapshot) {
        for (name, value) in other.iter() {
            let slot = self.counters.entry(name.to_string()).or_insert(0);
            if name.ends_with(".max") {
                *slot = (*slot).max(value);
            } else {
                *slot += value;
            }
        }
    }

    /// Merge an iterator of snapshots into one (see
    /// [`Snapshot::merge_from`]).
    pub fn merged<'a>(snaps: impl IntoIterator<Item = &'a Snapshot>) -> Snapshot {
        let mut out = Snapshot::default();
        for s in snaps {
            out.merge_from(s);
        }
        out
    }

    /// Iterate `(name, value)` in sorted name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Detect every histogram family in the snapshot and derive
    /// [`HistQuantiles`] for each, sorted by family name.
    ///
    /// A family is a prefix `p` for which `p.count`, `p.sum`, and `p.max`
    /// are all present (the triple a [`Histogram`] always emits); its
    /// buckets are rebuilt from the `p.le_<2^k>` / `p.inf` keys and fed
    /// through [`bucket_quantile`]. Purely derived from the sorted map,
    /// so the output is deterministic.
    pub fn histogram_quantiles(&self) -> Vec<(String, HistQuantiles)> {
        let mut out = Vec::new();
        for (key, _) in self.counters.iter() {
            let Some(prefix) = key.strip_suffix(".count") else { continue };
            if !self.counters.contains_key(&format!("{prefix}.sum"))
                || !self.counters.contains_key(&format!("{prefix}.max"))
            {
                continue;
            }
            let mut buckets = [0u64; HISTOGRAM_BUCKETS];
            for (k, b) in buckets[..HISTOGRAM_BUCKETS - 1].iter_mut().enumerate() {
                *b = self.get(&format!("{prefix}.le_{}", 1u64 << k));
            }
            buckets[HISTOGRAM_BUCKETS - 1] = self.get(&format!("{prefix}.inf"));
            let count: u64 = buckets.iter().sum();
            if count == 0 {
                // A counter triple that merely looks like a histogram
                // (or a histogram whose window saw no samples).
                continue;
            }
            let max = self.get(&format!("{prefix}.max"));
            out.push((
                prefix.to_string(),
                HistQuantiles {
                    count,
                    p50: bucket_quantile(&buckets, max, 50),
                    p95: bucket_quantile(&buckets, max, 95),
                    p99: bucket_quantile(&buckets, max, 99),
                },
            ));
        }
        out
    }

    /// Number of distinct metric names.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }
}
