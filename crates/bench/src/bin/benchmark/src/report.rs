//! Metric names and units, merging children into one result, and the
//! result documents the benchmark prints.

use tangled_bench::json::Json;

/// End-to-end metrics, reported with tracing off: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("sim_minsts_per_s", "Minst/s"),
    ("sim_cpi", "cycles/insn"),
    ("peak_rss_mb", "MB"),
];

/// A per-layer metric, reported with `--trace 1`.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    /// A deterministic count: two runs of the same code agree exactly.
    pub exact: bool,
}

const fn measured(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        exact: true,
    }
}

/// Every per-layer metric, grouped by layer.
pub const PER_LAYER: [Layer; 46] = [
    measured("proc.minflt_per_op", "faults/op"),
    measured("proc.sys_cpu_frac", "ratio"),
    measured("tangled.alloc_us", "us"),
    measured("tangled.pipeline.self_us", "us"),
    measured("tangled.machine.self_us", "us"),
    exact("tangled.insns_per_op", "insns/op"),
    exact("tangled.fusion.runs_per_op", "runs/op"),
    exact("tangled.fusion.gates_per_run", "gates/run"),
    exact("tangled.fusion.coverage", "ratio"),
    measured("qat.self_us", "us"),
    exact("qat.gates_per_op", "gates/op"),
    exact("qat.reads_per_op", "reads/op"),
    measured("aob.alloc_us", "us"),
    measured("aob.replay_us", "us"),
    measured("aob.eager.alloc_us", "us"),
    measured("aob.eager.replay_us", "us"),
    measured("aob.interned.alloc_us", "us"),
    measured("aob.interned.replay_us", "us"),
    measured("aob.adaptive.alloc_us", "us"),
    measured("aob.adaptive.replay_us", "us"),
    exact("aob.intern.hit_rate", "ratio"),
    exact("aob.intern.misses_per_op", "misses/op"),
    exact("aob.intern.chunks", "count"),
    exact("aob.adaptive.promotions", "count"),
    exact("aob.adaptive.demotions", "count"),
    exact("aob.materializations", "count"),
    measured("pbp.sparse_re.alloc_us", "us"),
    measured("pbp.sparse_re.replay_us", "us"),
    exact("pbp.packed.words", "count"),
    exact("pbp.packed.ratio", "ratio"),
    exact("pbp.packed.repeats", "count"),
    measured("tangled.proggen_share", "ratio"),
    measured("tangled.difftest.reference_share", "ratio"),
    measured("tangled.difftest.timing_share", "ratio"),
    measured("tangled.difftest.oracles_share", "ratio"),
    measured("qsim.crosscheck_share", "ratio"),
    measured("pbp.crosscheck_share", "ratio"),
    measured("serve.service_us", "us"),
    measured("serve.wait_ms_p50", "ms"),
    measured("serve.parallel_efficiency", "ratio"),
    measured("serve.queue_depth_max", "count"),
    measured("store.load_us", "us"),
    measured("store.warm_replay_us", "us"),
    measured("telemetry.counters_overhead", "ratio"),
    measured("ledger.op_us", "us"),
    measured("ledger.residual_frac", "ratio"),
];

/// Quantile `q` in `0..=1` of samples, interpolated linearly between
/// the two nearest ranks.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of no samples");
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// One stretch of a timed window.
#[derive(Clone, Debug, Default)]
pub struct Bucket {
    pub secs: f64,
    /// Reference-model instructions the stretch's operations retired.
    pub insns: u64,
    /// Latency of each operation completed in the stretch.
    pub lat_ns: Vec<u64>,
    /// Set-up repetitions timed just before the stretch began.
    pub setup_s: Vec<f64>,
}

impl Bucket {
    fn rate(&self) -> f64 {
        self.lat_ns.len() as f64 / self.secs
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(vec![
            self.secs.into(),
            self.insns.into(),
            Json::Arr(self.lat_ns.iter().map(|&x| x.into()).collect()),
            self.setup_s.clone().into(),
        ])
    }

    pub fn from_json(j: &Json) -> Option<Bucket> {
        let lat_ns = j[2]
            .as_array()?
            .iter()
            .map(Json::as_u64)
            .collect::<Option<_>>()?;
        let setup_s = j[3]
            .as_array()?
            .iter()
            .map(Json::as_f64)
            .collect::<Option<_>>()?;
        Some(Bucket {
            secs: j[0].as_f64()?,
            insns: j[1].as_u64()?,
            lat_ns,
            setup_s,
        })
    }
}

/// A stretch is quiet when its throughput is at least this share of the
/// 90th-percentile stretch's. Interference from the machine's other
/// tenants only ever slows a stretch down, and comes in spells of seconds
/// that cut throughput by 20-60%; ordinary jitter stays within a few
/// percent.
const QUIET_FLOOR: f64 = 0.85;

/// A loop's figures over its quiet stretches.
pub struct Quiet {
    pub ops_per_s: f64,
    pub insns_per_s: f64,
    /// Sorted latencies of the quiet stretches' operations.
    pub lat_ns: Vec<u64>,
    /// The quiet stretches' set-up repetitions.
    pub setup_s: Vec<f64>,
}

pub fn quiet(buckets: &[Bucket]) -> Quiet {
    let mut rates: Vec<f64> = buckets.iter().map(Bucket::rate).collect();
    let floor = QUIET_FLOOR * quantile(&mut rates, 0.9);
    let kept: Vec<&Bucket> = buckets.iter().filter(|b| b.rate() >= floor).collect();
    let secs: f64 = kept.iter().map(|b| b.secs).sum();
    let mut lat_ns: Vec<u64> = kept.iter().flat_map(|b| b.lat_ns.iter().copied()).collect();
    lat_ns.sort_unstable();
    Quiet {
        ops_per_s: lat_ns.len() as f64 / secs,
        insns_per_s: kept.iter().map(|b| b.insns).sum::<u64>() as f64 / secs,
        lat_ns,
        setup_s: kept
            .iter()
            .flat_map(|b| b.setup_s.iter().copied())
            .collect(),
    }
}

/// The `p`-th percentile (nearest rank) of sorted samples.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One workload's merged result.
pub struct WorkloadResult {
    pub backend: String,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` in table order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Untraced runs: the p99 latency in ms and the sample count behind
    /// the latency quantiles. Reported but held to no bound: the tail
    /// moves by up to 20% from run to run with the machine's other
    /// tenants.
    pub tail: Option<(f64, usize)>,
}

fn num(j: &Json, key: &str) -> f64 {
    j[key]
        .as_f64()
        .unwrap_or_else(|| panic!("child report lacks `{key}`"))
}

/// Merge the untraced reports of a workload's children: throughput,
/// latency and set-up time over every child's quiet stretches (set-up
/// time from each child's start when its stretches carry none), peak RSS
/// as a median.
pub fn merge_untraced(children: &[Json]) -> WorkloadResult {
    let (mut buckets, mut start_setup, mut rss) = (vec![], vec![], vec![]);
    for c in children {
        let b = c["buckets"]
            .as_array()
            .expect("child report lacks `buckets`");
        buckets.extend(b.iter().map(|j| Bucket::from_json(j).expect("a bucket")));
        start_setup.extend(
            c["setup_s"]
                .as_array()
                .expect("setup_s")
                .iter()
                .filter_map(Json::as_f64),
        );
        rss.push(num(c, "rss_mb"));
    }
    let q = quiet(&buckets);
    let ms = |p: f64| percentile(&q.lat_ns, p) as f64 / 1e6;
    let mut setup = if q.setup_s.is_empty() {
        start_setup
    } else {
        q.setup_s.clone()
    };
    let metrics = vec![
        ("setup_s", median(&mut setup)),
        ("ops_per_s", q.ops_per_s),
        ("latency_p50_ms", ms(50.0)),
        ("sim_minsts_per_s", q.insns_per_s / 1e6),
        ("sim_cpi", num(&children[0], "cpi")),
        ("peak_rss_mb", median(&mut rss)),
    ];
    let mut r = merge_common(children, metrics);
    r.tail = Some((ms(99.0), q.lat_ns.len()));
    // Every child must report the same simulated CPI.
    if children
        .iter()
        .any(|c| num(c, "cpi") != num(&children[0], "cpi"))
    {
        r.failed += 1;
    }
    r
}

/// Merge traced reports: each per-layer metric is the median over the
/// children.
pub fn merge_traced(children: &[Json]) -> WorkloadResult {
    let metrics = PER_LAYER
        .iter()
        .map(|l| {
            let mut v: Vec<f64> = children.iter().map(|c| num(&c["layers"], l.name)).collect();
            (l.name, median(&mut v))
        })
        .collect();
    merge_common(children, metrics)
}

fn merge_common(children: &[Json], metrics: Vec<(&'static str, f64)>) -> WorkloadResult {
    let backend = children[0]["backend"]
        .as_str()
        .expect("backend")
        .to_string();
    WorkloadResult {
        backend,
        attempted: children.iter().map(|c| num(c, "attempted") as u64).sum(),
        failed: children.iter().map(|c| num(c, "failed") as u64).sum(),
        metrics,
        tail: None,
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .copied()
        .chain(PER_LAYER.iter().map(|l| (l.name, l.unit)))
        .find(|&(n, _)| n == name)
        .map(|(_, u)| u)
        .expect("every reported metric has a unit")
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Failed operations as a share of those attempted: a wrong output, a
    /// `SimError`, a `JobError` or a finding each count as a failure.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn metrics_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|&(n, v)| {
                    (
                        n.to_string(),
                        Json::obj([("value", v.into()), ("unit", unit_of(n).into())]),
                    )
                })
                .collect(),
        )
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", self.metrics_json()),
        ])
    }

    /// The result line plus the backend that ran, the failure share and
    /// the tail, as stored in a result set.
    pub fn to_json_with_context(&self) -> Json {
        let mut j = self.to_json();
        if let Json::Obj(m) = &mut j {
            m.insert("backend".into(), self.backend.as_str().into());
            m.insert("failed_frac".into(), self.failed_frac().into());
            if let Some((p99, samples)) = self.tail {
                let tail = Json::obj([("latency_p99_ms", p99.into()), ("samples", samples.into())]);
                m.insert("tail".into(), tail);
            }
        }
        j
    }

    /// A human-readable table.
    pub fn render(&self, workload: &str) -> String {
        let mut s = format!(
            "{workload}: backend {}, {} ops checked, {} failed (failed_frac {})\n",
            self.backend,
            self.attempted,
            self.failed,
            self.failed_frac()
        );
        for &(n, v) in &self.metrics {
            s.push_str(&format!("  {n:<34} {v:>14.6} {}\n", unit_of(n)));
        }
        if let Some((p99, samples)) = self.tail {
            s.push_str(&format!(
                "  tail: p99 {p99:.6} ms over {samples} samples (no bound)\n"
            ));
        }
        s
    }
}

/// Render a document on one line (the last line of standard output).
pub fn one_line(j: &Json) -> String {
    j.to_string().lines().map(str::trim_start).collect()
}

/// A result set: every workload's result under one document.
pub fn result_set(
    seed: u64,
    seconds: f64,
    trace: bool,
    results: &[(&str, &WorkloadResult)],
) -> Json {
    Json::obj([
        ("schema", "tangled-benchmark/v1".into()),
        ("seed", seed.into()),
        ("seconds", seconds.into()),
        ("trace", Json::Bool(trace)),
        (
            "workloads",
            Json::Obj(
                results
                    .iter()
                    .map(|(w, r)| (w.to_string(), r.to_json_with_context()))
                    .collect(),
            ),
        ),
    ])
}
