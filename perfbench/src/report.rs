//! Turns a workload's [`Outcome`] into the named metrics and the full
//! report.

use crate::harness::{Outcome, Traced};
use crate::json::Json;
use crate::ledger::GIB;
use crate::probe::{FmaCeiling, TriadCeiling};
use crate::stats::{mean, median, percentile, tail_percentile};

/// A named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The end-to-end metrics every workload reports (plain run).
pub fn end_to_end(o: &Outcome, peak_rss_mib: f64) -> Vec<Metric> {
    vec![
        metric("setup_s", "s", median(&o.setup_s)),
        metric("ops_per_s", "1/s", o.op_ms.len() as f64 / o.busy_s),
        metric("op_p50_ms", "ms", median(&o.op_ms)),
        metric("peak_rss_mib", "MiB", peak_rss_mib),
        metric("accuracy_hmean", "ratio", mean(&o.accuracy)),
    ]
}

/// Latency facts behind the end-to-end metrics: sample counts, the tail
/// percentile the sample count supports, and the failure ratio.
pub fn samples(o: &Outcome) -> Json {
    let tail = tail_percentile(o.op_ms.len(), 95);
    let mut j = Json::obj()
        .with("ops", o.op_ms.len())
        .with("sessions", o.open_ms.len())
        .with("setup_repeats", o.setup_s.len())
        .with("setup_s", o.setup_s.clone())
        .with("wall_s", o.wall_s)
        .with("busy_s", o.busy_s)
        .with("op_min_ms", percentile(&o.op_ms, 0.0))
        .with("op_p10_ms", percentile(&o.op_ms, 10.0))
        .with("op_p90_ms", percentile(&o.op_ms, 90.0))
        .with("op_max_ms", percentile(&o.op_ms, 100.0))
        .with("open_p10_ms", percentile(&o.open_ms, 10.0))
        .with("open_p50_ms", median(&o.open_ms))
        .with("open_p90_ms", percentile(&o.open_ms, 90.0))
        .with("op_fail_ratio", o.failed as f64 / o.attempted.max(1) as f64)
        .with("digests_compared", o.digests_compared)
        .with("accuracy_inputs", o.accuracy.len());
    match tail {
        Some(p) => {
            j.set("op_tail_percentile", u64::from(p));
            j.set("op_tail_ms", percentile(&o.op_ms, f64::from(p)));
        }
        None => {
            j.set(
                "op_tail_percentile",
                "none: fewer than 20 ops, so no percentile has 10 samples beyond it",
            );
        }
    }
    if !o.append_ms.is_empty() {
        j.set("appends", o.append_ms.len());
    }
    j
}

/// Layer names whose `_ms` metric is reported, with the ledger key.
const STAGES: [(&str, &str); 10] = [
    ("stage.Midpoint_ms", "stage.Midpoint"),
    ("stage.MidpointSvd_ms", "stage.MidpointSvd"),
    ("stage.BoundSvd_ms", "stage.BoundSvd"),
    ("stage.SvdAlign_ms", "stage.SvdAlign"),
    ("stage.IntervalGram_ms", "stage.IntervalGram"),
    ("stage.BoundEigen_ms", "stage.BoundEigen"),
    ("stage.LeftRecover_ms", "stage.LeftRecover"),
    ("stage.GramAlign_ms", "stage.GramAlign"),
    ("stage.AlignedSolve_ms", "stage.AlignedSolve"),
    ("stage.RightTighten_ms", "stage.RightTighten"),
];

const CORE: [(&str, &str); 6] = [
    ("core.unstaged_ms", "core.unstaged"),
    ("core.session_open_ms", "core.session_open"),
    ("core.append_ms", "core.append"),
    ("core.restore_ms", "core.restore"),
    ("core.snapshot_write_ms", "core.snapshot_write"),
    ("bench.check_ms", "bench.check"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The layer the ledger names as the workload's slowest: the largest time
/// among the layers that carry a work count (so it has a ceiling fraction).
pub fn top_layer(t: &Traced, fma: f64, triad: f64) -> Option<crate::ledger::LayerRow> {
    t.ledger
        .rows(fma, triad)
        .into_iter()
        .find(|r| r.ceiling_fraction.is_some())
}

/// The per-layer metrics of a traced run. Every `_ms` layer metric is time
/// per op (total over the traced ops divided by their count), so the
/// critical-path layers add up to the traced op's mean wall time.
pub fn per_layer(t: &Traced, fma: &FmaCeiling, triad: &TriadCeiling) -> Vec<Metric> {
    let l = &t.ledger;
    let ops = t.ops.max(1) as f64;
    let per_op = |layer: &str| l.layer_ms(layer) / ops;
    let decode_s = l.layer_ms("data.decode") / 1e3;
    let decode_bytes = l.layer_bytes("data.decode");
    let decode_rate = ratio(decode_bytes, decode_s);
    let gram_s = l.layer_ms("stage.IntervalGram") / 1e3;
    let gram_gflops = ratio(l.layer_flops("stage.IntervalGram"), gram_s) / 1e9;
    let top = top_layer(t, fma.gflops, triad.gib_per_s);
    let mut m = vec![
        metric("data.decode_ms", "ms", per_op("data.decode")),
        metric(
            "data.decode_mib_per_s",
            "MiB/s",
            decode_rate / (1024.0 * 1024.0),
        ),
        metric(
            "data.decode_roofline",
            "ratio",
            decode_rate / (triad.gib_per_s * GIB),
        ),
        metric("data.prefetch_wait_ms", "ms", per_op("data.prefetch_wait")),
        metric(
            "data.shard_passes",
            "count",
            ratio(l.shards_decoded as f64, t.shards_in_file as f64 * ops),
        ),
        metric("data.write_ms", "ms", t.write_ms),
        metric(
            "linalg.pool_hit_ratio",
            "ratio",
            ratio(t.pool_hits as f64, (t.pool_hits + t.pool_misses) as f64),
        ),
        metric(
            "linalg.topk_fallback_ratio",
            "ratio",
            ratio(t.topk_fallbacks as f64, t.topk_replays as f64),
        ),
    ];
    m.extend(
        STAGES
            .iter()
            .map(|&(name, key)| metric(name, "ms", per_op(key))),
    );
    m.push(metric("interval.gram_gflops", "GFLOP/s", gram_gflops));
    m.push(metric(
        "interval.gram_roofline",
        "ratio",
        gram_gflops / fma.gflops,
    ));
    m.extend(
        CORE.iter()
            .map(|&(name, key)| metric(name, "ms", per_op(key))),
    );
    m.extend([
        metric(
            "core.cache_hit_ratio",
            "ratio",
            ratio(t.cache_hits as f64, (t.cache_hits + t.cache_misses) as f64),
        ),
        metric(
            "core.snapshot_mib",
            "MiB",
            t.snapshot_bytes / (1024.0 * 1024.0),
        ),
        metric("ceiling.fma_gflops", "GFLOP/s", fma.gflops),
        metric("ceiling.triad_gib_per_s", "GiB/s", triad.gib_per_s),
        metric(
            "trace.overhead_ratio",
            "ratio",
            ratio(t.traced_ms, t.untraced_ms),
        ),
        metric("trace.coverage", "ratio", l.coverage()),
        metric(
            "ledger.top_layer_ms",
            "ms",
            top.as_ref().map_or(0.0, |r| r.ms / ops),
        ),
        metric(
            "ledger.top_layer_ceiling_fraction",
            "ratio",
            top.and_then(|r| r.ceiling_fraction).unwrap_or(0.0),
        ),
    ]);
    m
}

/// The full ledger: every layer, slowest first, with its work and ceiling
/// fraction, and the top layer by name.
pub fn ledger_json(t: &Traced, fma: &FmaCeiling, triad: &TriadCeiling) -> Json {
    let ops = t.ops.max(1) as f64;
    let rows: Vec<Json> = t
        .ledger
        .rows(fma.gflops, triad.gib_per_s)
        .into_iter()
        .map(|r| {
            Json::obj()
                .with("layer", r.name)
                .with("ms_per_op", r.ms / ops)
                .with("share_of_wall", r.ms / t.ledger.wall_ms)
                .with("computed_flops_per_op", r.flops / ops)
                .with("computed_bytes_per_op", r.bytes / ops)
                .with("ceiling_fraction", r.ceiling_fraction)
                .with("off_critical_path", r.off_critical_path)
        })
        .collect();
    let top = top_layer(t, fma.gflops, triad.gib_per_s);
    Json::obj()
        .with("traced_ops", t.ops)
        .with("traced_units", t.ledger.units)
        .with("traced_wall_ms", t.ledger.wall_ms)
        .with("ledger_sum_ms", t.ledger.critical_sum_ms())
        .with("coverage", t.ledger.coverage())
        .with("top_layer", top.as_ref().map(|r| r.name))
        .with(
            "top_layer_ceiling",
            top.as_ref().map(|r| {
                if r.flops > 0.0 {
                    "ceiling.fma_gflops"
                } else {
                    "ceiling.triad_gib_per_s"
                }
            }),
        )
        .with(
            "top_layer_ceiling_fraction",
            top.and_then(|r| r.ceiling_fraction),
        )
        .with("layers", Json::Arr(rows))
        .with(
            "ceilings",
            Json::obj()
                .with("fma_gflops", fma.gflops)
                .with("fma_computed_flops", fma.flops)
                .with("fma_threads", 1u64)
                .with("triad_gib_per_s", triad.gib_per_s)
                .with("triad_elements_per_array", triad.elements)
                .with("triad_array_bytes_total", triad.array_bytes)
                .with("triad_computed_bytes_per_pass", triad.bytes_per_pass),
        )
}

/// The last line of standard output.
pub fn result_line(correct: bool, o: &Outcome, metrics: &[Metric]) -> String {
    let mut m = Json::obj();
    for x in metrics {
        m.set(
            x.name,
            Json::obj().with("value", x.value).with("unit", x.unit),
        );
    }
    Json::obj()
        .with("correct", correct)
        .with("attempted", o.attempted)
        .with("failed", o.failed)
        .with("metrics", m)
        .to_string()
}
