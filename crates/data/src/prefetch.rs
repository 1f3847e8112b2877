//! Double-buffered shard prefetch: overlap disk decode with the Gram fold.
//!
//! The out-of-core Gram loop is strictly sequential: decode shard *i*,
//! fold shard *i*, decode shard *i+1*, … — the CPU alternates between the
//! reader and the accumulator and each waits for the other. This module
//! moves the reader onto one background thread connected by a bounded
//! channel, so shard *i+1* is decoded *while* shard *i* is being folded.
//! With decode and fold roughly balanced this approaches a 2× end-to-end
//! win; it can never help less than zero because depth 0 degenerates to
//! the inline reader with no thread at all.
//!
//! ## Bitwise identity
//!
//! Prefetching must not perturb results. The argument is short: there is
//! exactly **one** reader thread, it produces shards in stream order, and
//! an mpsc channel delivers them FIFO — so the consumer folds the exact
//! same shards in the exact same order as the inline route, and the
//! chunk-realigned accumulators are already invariant to everything else.
//! `IVMF_PREFETCH` (depth 0, 1 or 2; default 1) therefore never appears
//! in a cache fingerprint.
//!
//! ## Error and lifecycle discipline
//!
//! A reader error is forwarded through the channel and surfaces from
//! `next_shard` exactly where the inline reader would have raised it; the
//! pass then ends. `reset` tears down any in-flight pass (the worker's
//! blocked send fails when the old channel is dropped) and starts a fresh
//! one, preserving the rewindable-source contract the multi-pass
//! consumers rely on. Dropping the source stops the worker; the thread is
//! joined, never detached.

use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::thread::JoinHandle;

use ivmf_interval::{
    CsrIntervalShard, CsrShardSource, IntervalError, IntervalMatrix, IntervalShard,
    Result as IResult, RowShardSource, ShardSource,
};

/// The stream the worker pumps.
type Stream<T> = Box<dyn ShardSource<T> + Send>;

/// Commands the consumer side sends to the worker thread.
enum Cmd<T> {
    /// Begin a fresh pass: rewind the stream and pump shards into the
    /// supplied bounded channel until end-of-stream, error, or the
    /// consumer drops the receiver.
    Start(SyncSender<IResult<Option<T>>>),
    /// Orderly shutdown.
    Stop,
}

fn worker_loop<T: Send + 'static>(mut stream: Stream<T>, cmds: mpsc::Receiver<Cmd<T>>) {
    while let Ok(cmd) = cmds.recv() {
        let tx = match cmd {
            Cmd::Start(tx) => tx,
            Cmd::Stop => return,
        };
        if let Err(e) = stream.rewind() {
            let _ = tx.send(Err(e));
            continue;
        }
        loop {
            let item = stream.pull();
            let end = matches!(item, Ok(None)) || item.is_err();
            // A failed send means the consumer abandoned this pass
            // (reset or drop) — fall back to waiting for the next
            // command.
            if tx.send(item).is_err() || end {
                break;
            }
        }
    }
}

enum Engine<T: Send + 'static> {
    /// Depth 0: no thread, no buffering — calls pass straight through to
    /// the wrapped source, preserving its exact semantics.
    Inline(Stream<T>),
    Threaded {
        cmd: Sender<Cmd<T>>,
        handle: Option<JoinHandle<()>>,
        rx: Option<Receiver<IResult<Option<T>>>>,
        depth: usize,
        finished: bool,
    },
}

impl<T: Send + 'static> Engine<T> {
    fn new(stream: Stream<T>, depth: usize) -> Self {
        if depth == 0 {
            return Engine::Inline(stream);
        }
        let (cmd, cmds) = mpsc::channel();
        let handle = std::thread::Builder::new()
            .name("ivmf-prefetch".into())
            .spawn(move || worker_loop(stream, cmds))
            .expect("spawn prefetch reader thread");
        Engine::Threaded {
            cmd,
            handle: Some(handle),
            rx: None,
            depth,
            finished: false,
        }
    }

    fn dead_worker() -> IntervalError {
        IntervalError::Source("prefetch worker terminated unexpectedly".into())
    }

    fn reset(&mut self) -> IResult<()> {
        match self {
            Engine::Inline(s) => s.rewind(),
            Engine::Threaded {
                cmd,
                rx,
                depth,
                finished,
                ..
            } => {
                // Dropping the old receiver aborts any in-flight pass:
                // the worker's next blocked send fails and it returns to
                // its command loop.
                rx.take();
                let (tx, new_rx) = mpsc::sync_channel(*depth);
                cmd.send(Cmd::Start(tx)).map_err(|_| Self::dead_worker())?;
                *rx = Some(new_rx);
                *finished = false;
                Ok(())
            }
        }
    }

    fn next(&mut self) -> IResult<Option<T>> {
        if let Engine::Inline(s) = self {
            return s.pull();
        }
        if let Engine::Threaded { finished: true, .. } = self {
            return Ok(None);
        }
        if let Engine::Threaded { rx: None, .. } = self {
            // First pull without an explicit reset: start the pass lazily,
            // matching a fresh inline reader positioned at its start.
            self.reset()?;
        }
        let Engine::Threaded { rx, finished, .. } = self else {
            unreachable!("inline case returned above")
        };
        let recv = rx.as_ref().expect("pass started above").recv();
        match recv {
            Ok(Ok(Some(shard))) => Ok(Some(shard)),
            Ok(Ok(None)) => {
                *finished = true;
                Ok(None)
            }
            Ok(Err(e)) => {
                *finished = true;
                Err(e)
            }
            Err(_) => {
                *finished = true;
                Err(Self::dead_worker())
            }
        }
    }
}

impl<T: Send + 'static> Drop for Engine<T> {
    fn drop(&mut self) {
        if let Engine::Threaded {
            cmd, handle, rx, ..
        } = self
        {
            // Drop the data channel first so a worker blocked on send
            // unblocks, then ask it to stop and join.
            rx.take();
            let _ = cmd.send(Cmd::Stop);
            if let Some(h) = handle.take() {
                let _ = h.join();
            }
        }
    }
}

/// A shard-source adapter that decodes shards on a background thread,
/// `depth` shards ahead of the consumer. Depth 0 is a true pass-through
/// (no thread); depth 1 (the `IVMF_PREFETCH` default) double-buffers —
/// decode of shard *i+1* overlaps the fold of shard *i*. Delivery is
/// strictly in order, so results are bitwise identical at every depth.
pub struct Prefetch<S: IntervalShard> {
    engine: Engine<S>,
    rows: usize,
    cols: usize,
    depth: usize,
}

/// [`Prefetch`] over dense shards, a [`RowShardSource`].
pub type PrefetchSource = Prefetch<IntervalMatrix>;

/// [`Prefetch`] over CSR shards, a [`CsrShardSource`].
pub type PrefetchCsrSource = Prefetch<CsrIntervalShard>;

impl<S: IntervalShard> Prefetch<S> {
    /// Wraps `source`, prefetching up to `depth` shards ahead.
    pub fn new(source: Box<dyn ShardSource<S> + Send>, depth: usize) -> Self {
        let (rows, cols) = source.shape();
        Prefetch {
            engine: Engine::new(source, depth),
            rows,
            cols,
            depth,
        }
    }

    /// Wraps `source` with the depth configured by `IVMF_PREFETCH`.
    pub fn from_env(source: Box<dyn ShardSource<S> + Send>) -> Self {
        Self::new(source, ivmf_env::prefetch())
    }

    /// The configured prefetch depth (0 = inline).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The next shard, or `None` after the last one.
    pub fn next_shard(&mut self) -> IResult<Option<S>> {
        self.engine.next()
    }
}

impl RowShardSource for PrefetchSource {
    fn rows(&self) -> usize {
        self.rows
    }
    fn cols(&self) -> usize {
        self.cols
    }
    fn reset(&mut self) -> IResult<()> {
        self.engine.reset()
    }
    fn next_shard(&mut self) -> IResult<Option<IntervalMatrix>> {
        self.engine.next()
    }
}

impl CsrShardSource for PrefetchCsrSource {
    fn rows(&self) -> usize {
        self.rows
    }
    fn cols(&self) -> usize {
        self.cols
    }
    fn reset(&mut self) -> IResult<()> {
        self.engine.reset()
    }
    fn next_shard(&mut self) -> IResult<Option<CsrIntervalShard>> {
        self.engine.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivmf_linalg::Matrix;

    /// An in-memory dense source that counts resets and can be told to
    /// fail at a given shard index.
    struct ScriptedSource {
        shards: Vec<IntervalMatrix>,
        pos: usize,
        resets: usize,
        fail_at: Option<usize>,
    }

    impl ScriptedSource {
        fn new(n: usize) -> Self {
            let shards = (0..n)
                .map(|i| {
                    let lo = Matrix::from_vec(1, 2, vec![i as f64, -1.0]).unwrap();
                    let hi = Matrix::from_vec(1, 2, vec![i as f64 + 0.5, 1.0]).unwrap();
                    IntervalMatrix::from_bounds(lo, hi).unwrap()
                })
                .collect();
            ScriptedSource {
                shards,
                pos: 0,
                resets: 0,
                fail_at: None,
            }
        }
    }

    impl RowShardSource for ScriptedSource {
        fn rows(&self) -> usize {
            self.shards.len()
        }
        fn cols(&self) -> usize {
            2
        }
        fn reset(&mut self) -> IResult<()> {
            self.pos = 0;
            self.resets += 1;
            Ok(())
        }
        fn next_shard(&mut self) -> IResult<Option<IntervalMatrix>> {
            if self.fail_at == Some(self.pos) {
                return Err(IntervalError::Source("scripted failure".into()));
            }
            let s = self.shards.get(self.pos).cloned();
            self.pos += 1;
            Ok(s)
        }
    }

    fn collect_ids(src: &mut PrefetchSource) -> Vec<f64> {
        let mut ids = Vec::new();
        while let Some(s) = src.next_shard().unwrap() {
            ids.push(s.lo().get(0, 0).unwrap());
        }
        ids
    }

    #[test]
    fn delivers_all_shards_in_order_at_every_depth() {
        for depth in [0usize, 1, 2] {
            let mut src = PrefetchSource::new(Box::new(ScriptedSource::new(7)), depth);
            assert_eq!(src.depth(), depth);
            assert_eq!(src.rows(), 7);
            assert_eq!(src.cols(), 2);
            src.reset().unwrap();
            assert_eq!(
                collect_ids(&mut src),
                (0..7).map(|i| i as f64).collect::<Vec<_>>()
            );
            // Exhausted stream keeps returning None, like the inline reader.
            assert!(src.next_shard().unwrap().is_none());
            // A reset starts a full second pass.
            src.reset().unwrap();
            assert_eq!(
                collect_ids(&mut src),
                (0..7).map(|i| i as f64).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn lazy_first_pull_and_mid_pass_reset_behave_like_inline() {
        for depth in [1usize, 2] {
            // No explicit reset before the first pull.
            let mut src = PrefetchSource::new(Box::new(ScriptedSource::new(4)), depth);
            assert_eq!(src.next_shard().unwrap().unwrap().lo().get(0, 0), Ok(0.0));
            // Abandon the pass mid-stream; the next pass restarts at 0.
            src.reset().unwrap();
            assert_eq!(collect_ids(&mut src), vec![0.0, 1.0, 2.0, 3.0]);
        }
    }

    #[test]
    fn source_errors_surface_and_end_the_pass() {
        for depth in [0usize, 1, 2] {
            let mut inner = ScriptedSource::new(5);
            inner.fail_at = Some(2);
            let mut src = PrefetchSource::new(Box::new(inner), depth);
            src.reset().unwrap();
            assert!(src.next_shard().unwrap().is_some());
            assert!(src.next_shard().unwrap().is_some());
            let err = src.next_shard().unwrap_err();
            assert!(err.to_string().contains("scripted failure"), "{err}");
            if depth > 0 {
                // After a forwarded error the threaded pass is over.
                assert!(src.next_shard().unwrap().is_none());
            }
        }
    }

    #[test]
    fn dropping_mid_pass_joins_the_worker_without_hanging() {
        let mut src = PrefetchSource::new(Box::new(ScriptedSource::new(100)), 1);
        src.reset().unwrap();
        let _ = src.next_shard().unwrap();
        drop(src); // must not deadlock on the worker's blocked send
    }
}
