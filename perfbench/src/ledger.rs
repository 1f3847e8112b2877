//! The traced run's per-layer ledger.
//!
//! The benchmark times the calls it makes into each layer (session
//! constructors, `Pipeline::run`, appends, snapshots, output checks) and
//! wraps the shard sources it hands the pipeline in timing decorators
//! ([`crate::decor`]). Stage times come from the `StageEvent` list each
//! `Pipeline::run` returns. Every span is kept in memory and written as
//! Chrome trace-event JSON when the run ends.
//!
//! A layer's *self time* is its span's duration minus the part of it that
//! child spans cover. Prefetch waits are the children here: they happen on
//! the consumer thread inside session construction and inside the streamed
//! stages, so they are subtracted from both and booked to
//! `data.prefetch_wait`. Decode runs on the prefetch thread, off the
//! consumer's critical path: it is booked as that thread's busy time and is
//! not part of the ledger sum.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ivmf_core::pipeline::{StageEvent, StageId};

use crate::json::Json;

/// The consumer (benchmark) thread's trace id.
pub const MAIN_TID: u32 = 1;
/// The prefetch (I/O) thread's trace id.
pub const IO_TID: u32 = 2;

/// One timed interval recorded by a decorator.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub tid: u32,
    pub start: Instant,
    pub end: Instant,
    /// Bytes the call produced (decoded shard size), 0 when not applicable.
    pub bytes: u64,
    /// Shards the call delivered (0 or 1).
    pub shards: u64,
}

/// A thread-safe span collector shared with the decorators, which may run
/// on the prefetch thread.
#[derive(Debug, Clone, Default)]
pub struct SpanSink(Arc<Mutex<Vec<Span>>>);

impl SpanSink {
    pub fn push(&self, span: Span) {
        self.0
            .lock()
            .expect("span sink poisoned by a panicking decorator")
            .push(span);
    }

    /// Removes and returns every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .0
                .lock()
                .expect("span sink poisoned by a panicking decorator"),
        )
    }
}

/// Work a layer did, as computed from shapes and counts (never measured by
/// hardware counters).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Work {
    Flops(f64),
    Bytes(f64),
}

/// A benchmark-side timestamp around one call into a layer.
#[derive(Debug, Clone)]
pub struct Stamp {
    pub layer: &'static str,
    pub start: Instant,
    pub end: Instant,
}

/// One `Pipeline::run` call and the stage events it returned.
#[derive(Debug, Clone)]
pub struct RunStamp {
    pub label: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub stages: Vec<StageEvent>,
}

/// Everything the benchmark recorded about one traced unit (an op, or a
/// churn epoch).
#[derive(Debug, Clone)]
pub struct UnitLog {
    pub start: Instant,
    pub end: Instant,
    /// Direct calls into a layer (session open, append, check, ...).
    pub stamps: Vec<Stamp>,
    pub runs: Vec<RunStamp>,
}

impl UnitLog {
    pub fn new(start: Instant) -> UnitLog {
        UnitLog {
            start,
            end: start,
            stamps: Vec::new(),
            runs: Vec::new(),
        }
    }

    /// Times `f` as one call into `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.stamps.push(Stamp {
            layer,
            start,
            end: Instant::now(),
        });
        out
    }
}

/// Ledger layer name of a pipeline stage (the two bound eigenproblems are
/// one layer).
pub fn stage_layer(stage: StageId) -> &'static str {
    match stage {
        StageId::Midpoint => "stage.Midpoint",
        StageId::MidpointSvd => "stage.MidpointSvd",
        StageId::BoundSvd => "stage.BoundSvd",
        StageId::SvdAlign => "stage.SvdAlign",
        StageId::IntervalGram => "stage.IntervalGram",
        StageId::BoundEigenLo | StageId::BoundEigenHi => "stage.BoundEigen",
        StageId::LeftRecover => "stage.LeftRecover",
        StageId::GramAlign => "stage.GramAlign",
        StageId::AlignedSolve => "stage.AlignedSolve",
        StageId::RightTighten => "stage.RightTighten",
    }
}

/// Total length of the part of `[a, b]` covered by `intervals` (which may
/// overlap one another).
pub fn covered(a: f64, b: f64, intervals: &[(f64, f64)]) -> f64 {
    let mut clipped: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(a), e.min(b)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in clipped {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of a span `[a, b]` whose children are `children`.
pub fn self_time(a: f64, b: f64, children: &[(f64, f64)]) -> f64 {
    (b - a) - covered(a, b, children)
}

/// One `Pipeline::run` split into ledger entries.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSplit {
    /// `(layer, start, self time)` per stage event, in execution order.
    pub stages: Vec<(&'static str, f64, f64)>,
    /// Run wall time outside every stage event, minus the waits there.
    pub unstaged: f64,
    /// Waits inside the run.
    pub wait: f64,
}

/// Splits the run `[start, end]` into stage self times, unstaged time and
/// wait time; the three always sum to `end - start`.
///
/// `StageEvent`s carry durations, not timestamps. Stages execute back to
/// back from the start of the run (the per-run work outside any stage, such
/// as factor assembly, follows the last stage), so stage `k` is placed at
/// `start + Σ_{j<k} d_j`; a wait is charged to the stage it overlaps.
pub fn split_run(
    start: f64,
    end: f64,
    stages: &[(&'static str, f64)],
    waits: &[(f64, f64)],
) -> RunSplit {
    let mut at = start;
    let mut out = Vec::with_capacity(stages.len());
    let mut staged = 0.0;
    let mut staged_wait = 0.0;
    for &(layer, d) in stages {
        let w = covered(at, at + d, waits);
        out.push((layer, at, d - w));
        staged += d;
        staged_wait += w;
        at += d;
    }
    let wait = covered(start, end, waits);
    RunSplit {
        stages: out,
        unstaged: (end - start) - staged - (wait - staged_wait),
        wait,
    }
}

#[derive(Debug, Clone, Default)]
struct Layer {
    ms: f64,
    flops: f64,
    bytes: f64,
    /// False for time spent on another thread, overlapped with the
    /// consumer (decode): reported, but outside the ledger sum.
    off_critical_path: bool,
}

#[derive(Debug, Clone)]
struct TraceEvent {
    name: String,
    tid: u32,
    ts_us: f64,
    dur_us: f64,
}

/// Per-layer totals over every traced unit, plus the spans behind them.
#[derive(Debug)]
pub struct Ledger {
    epoch: Instant,
    layers: BTreeMap<&'static str, Layer>,
    /// Sum of traced unit wall times (ms).
    pub wall_ms: f64,
    /// Traced units absorbed.
    pub units: u64,
    /// Shards delivered by the decode decorator.
    pub shards_decoded: u64,
    events: Vec<TraceEvent>,
}

impl Ledger {
    pub fn new(epoch: Instant) -> Ledger {
        Ledger {
            epoch,
            layers: BTreeMap::new(),
            wall_ms: 0.0,
            units: 0,
            shards_decoded: 0,
            events: Vec::new(),
        }
    }

    fn ms(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e3
    }

    fn event(&mut self, name: impl Into<String>, tid: u32, start_ms: f64, dur_ms: f64) {
        self.events.push(TraceEvent {
            name: name.into(),
            tid,
            ts_us: start_ms * 1e3,
            dur_us: dur_ms * 1e3,
        });
    }

    /// Adds `ms` of self time to `layer`.
    pub fn add(&mut self, layer: &'static str, ms: f64) {
        self.layers.entry(layer).or_default().ms += ms;
    }

    /// Adds computed work to `layer`.
    pub fn add_work(&mut self, layer: &'static str, work: Work) {
        let l = self.layers.entry(layer).or_default();
        match work {
            Work::Flops(f) => l.flops += f,
            Work::Bytes(b) => l.bytes += b,
        }
    }

    /// Total self time of `layer` (0 when never recorded).
    pub fn layer_ms(&self, layer: &str) -> f64 {
        self.layers.get(layer).map_or(0.0, |l| l.ms)
    }

    /// Computed bytes of `layer`.
    pub fn layer_bytes(&self, layer: &str) -> f64 {
        self.layers.get(layer).map_or(0.0, |l| l.bytes)
    }

    /// Computed flops of `layer`.
    pub fn layer_flops(&self, layer: &str) -> f64 {
        self.layers.get(layer).map_or(0.0, |l| l.flops)
    }

    /// Books one traced unit: the benchmark's stamps plus the decorator
    /// spans recorded while it ran.
    pub fn absorb(&mut self, unit: &UnitLog, remote: Vec<Span>) {
        let u0 = self.ms(unit.start);
        let u1 = self.ms(unit.end);
        let mut waits = Vec::new();
        for span in &remote {
            let (s, e) = (self.ms(span.start), self.ms(span.end));
            if span.tid == IO_TID {
                let l = self.layers.entry(span.name).or_default();
                l.ms += e - s;
                l.bytes += span.bytes as f64;
                l.off_critical_path = true;
                self.shards_decoded += span.shards;
            } else {
                waits.push((s, e));
            }
            self.event(span.name, span.tid, s, e - s);
        }
        self.event("unit", MAIN_TID, u0, u1 - u0);
        for stamp in &unit.stamps {
            let (s, e) = (self.ms(stamp.start), self.ms(stamp.end));
            self.add(stamp.layer, self_time(s, e, &waits));
            self.event(stamp.layer, MAIN_TID, s, e - s);
        }
        for run in &unit.runs {
            let (s, e) = (self.ms(run.start), self.ms(run.end));
            let stages: Vec<(&'static str, f64)> = run
                .stages
                .iter()
                .map(|ev| (stage_layer(ev.stage), ev.duration.as_secs_f64() * 1e3))
                .collect();
            let split = split_run(s, e, &stages, &waits);
            self.event(run.label, MAIN_TID, s, e - s);
            for (ev, &(layer, at, self_ms)) in run.stages.iter().zip(&split.stages) {
                self.add(layer, self_ms);
                let dur = ev.duration.as_secs_f64() * 1e3;
                self.event(ev.stage.name(), MAIN_TID, at, dur);
            }
            self.add("core.unstaged", split.unstaged);
        }
        self.add("data.prefetch_wait", covered(u0, u1, &waits));
        self.wall_ms += u1 - u0;
        self.units += 1;
    }

    /// Sum of the self times on the consumer's critical path.
    pub fn critical_sum_ms(&self) -> f64 {
        self.layers
            .values()
            .filter(|l| !l.off_critical_path)
            .map(|l| l.ms)
            .sum()
    }

    /// Ledger sum over traced wall time (1.0 = every millisecond booked).
    pub fn coverage(&self) -> f64 {
        self.critical_sum_ms() / self.wall_ms
    }

    /// Every layer with its self time, work and ceiling fraction (work rate
    /// over the matching ceiling), sorted by time, slowest first.
    pub fn rows(&self, fma_gflops: f64, triad_gib_per_s: f64) -> Vec<LayerRow> {
        let mut rows: Vec<LayerRow> = self
            .layers
            .iter()
            .map(|(&name, l)| {
                let secs = l.ms / 1e3;
                let fraction = if secs <= 0.0 {
                    None
                } else if l.flops > 0.0 {
                    Some(l.flops / secs / (fma_gflops * 1e9))
                } else if l.bytes > 0.0 {
                    Some(l.bytes / secs / (triad_gib_per_s * GIB))
                } else {
                    None
                };
                LayerRow {
                    name,
                    ms: l.ms,
                    flops: l.flops,
                    bytes: l.bytes,
                    ceiling_fraction: fraction,
                    off_critical_path: l.off_critical_path,
                }
            })
            .collect();
        rows.sort_by(|a, b| b.ms.total_cmp(&a.ms));
        rows
    }

    /// Chrome trace-event JSON of every recorded span (open it in Perfetto
    /// or chrome://tracing).
    pub fn chrome_trace(&self) -> String {
        let events: Vec<Json> = self
            .events
            .iter()
            .map(|e| {
                Json::obj()
                    .with("name", e.name.as_str())
                    .with("ph", "X")
                    .with("ts", e.ts_us)
                    .with("dur", e.dur_us)
                    .with("pid", 1u64)
                    .with("tid", u64::from(e.tid))
            })
            .collect();
        Json::obj()
            .with("traceEvents", Json::Arr(events))
            .with("displayTimeUnit", "ms")
            .to_string()
    }
}

/// Bytes per GiB.
pub const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

/// One ledger line.
#[derive(Debug, Clone)]
pub struct LayerRow {
    pub name: &'static str,
    pub ms: f64,
    pub flops: f64,
    pub bytes: f64,
    pub ceiling_fraction: Option<f64>,
    pub off_critical_path: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_merges_and_clips_intervals() {
        let iv = [(1.0, 3.0), (2.0, 4.0), (6.0, 7.0), (9.0, 12.0)];
        assert_eq!(covered(0.0, 10.0, &iv), 3.0 + 1.0 + 1.0);
        assert_eq!(covered(2.5, 6.5, &iv), 1.5 + 0.5);
        assert_eq!(covered(4.0, 6.0, &iv), 0.0);
        assert_eq!(self_time(0.0, 10.0, &iv), 5.0);
    }

    #[test]
    fn split_run_books_every_millisecond_once() {
        // A run of 100 ms: stages of 30 and 20 ms back to back from t=10,
        // then 50 ms of unstaged assembly. One wait inside each stage and
        // one in the unstaged tail.
        let stages = [("stage.IntervalGram", 30.0), ("stage.LeftRecover", 20.0)];
        let waits = [(15.0, 20.0), (45.0, 47.0), (80.0, 81.0)];
        let s = split_run(10.0, 110.0, &stages, &waits);
        assert_eq!(
            s.stages,
            vec![
                ("stage.IntervalGram", 10.0, 25.0),
                ("stage.LeftRecover", 40.0, 18.0)
            ]
        );
        assert_eq!(s.wait, 8.0);
        assert_eq!(s.unstaged, 49.0);
        let total: f64 = s.stages.iter().map(|x| x.2).sum::<f64>() + s.unstaged + s.wait;
        assert_eq!(total, 100.0);
    }

    #[test]
    fn split_run_charges_a_straddling_wait_to_both_sides() {
        let s = split_run(0.0, 10.0, &[("stage.IntervalGram", 4.0)], &[(3.0, 6.0)]);
        assert_eq!(s.stages, vec![("stage.IntervalGram", 0.0, 3.0)]);
        assert_eq!(s.unstaged, 4.0);
        assert_eq!(s.wait, 3.0);
    }
}
