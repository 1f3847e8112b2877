//! Timing decorators around the shard sources the benchmark hands the
//! pipeline. They change no data: every call is forwarded unchanged and
//! only its start and end are recorded.

use std::time::Instant;

use ivmf_interval::{CsrIntervalShard, CsrShardSource, Result as IResult};

use crate::ledger::{Span, SpanSink, IO_TID, MAIN_TID};

/// Bytes of a decoded CSR interval shard: column index plus both bound
/// values per stored entry, and the row pointers.
pub fn csr_shard_bytes(shard: &CsrIntervalShard) -> u64 {
    (shard.nnz() * 24 + (shard.rows() + 1) * 8) as u64
}

/// Wraps the shard reader *inside* the prefetcher: its spans are decode
/// work on the prefetch thread (`data.decode`).
pub struct DecodeTimer {
    inner: Box<dyn CsrShardSource + Send>,
    sink: SpanSink,
}

impl DecodeTimer {
    pub fn new(inner: Box<dyn CsrShardSource + Send>, sink: SpanSink) -> DecodeTimer {
        DecodeTimer { inner, sink }
    }
}

impl CsrShardSource for DecodeTimer {
    fn rows(&self) -> usize {
        self.inner.rows()
    }
    fn cols(&self) -> usize {
        self.inner.cols()
    }
    fn reset(&mut self) -> IResult<()> {
        let start = Instant::now();
        let out = self.inner.reset();
        self.sink.push(Span {
            name: "data.decode",
            tid: IO_TID,
            start,
            end: Instant::now(),
            bytes: 0,
            shards: 0,
        });
        out
    }
    fn next_shard(&mut self) -> IResult<Option<CsrIntervalShard>> {
        let start = Instant::now();
        let out = self.inner.next_shard();
        let end = Instant::now();
        let (bytes, shards) = match &out {
            Ok(Some(shard)) => (csr_shard_bytes(shard), 1),
            _ => (0, 0),
        };
        self.sink.push(Span {
            name: "data.decode",
            tid: IO_TID,
            start,
            end,
            bytes,
            shards,
        });
        out
    }
}

/// Wraps the prefetcher itself: time the consumer spends in its calls is
/// waiting for the I/O thread (`data.prefetch_wait`).
pub struct WaitTimer {
    inner: Box<dyn CsrShardSource>,
    sink: SpanSink,
}

impl WaitTimer {
    pub fn new(inner: Box<dyn CsrShardSource>, sink: SpanSink) -> WaitTimer {
        WaitTimer { inner, sink }
    }

    fn timed<T>(&mut self, f: impl FnOnce(&mut dyn CsrShardSource) -> T) -> T {
        let start = Instant::now();
        let out = f(self.inner.as_mut());
        self.sink.push(Span {
            name: "data.prefetch_wait",
            tid: MAIN_TID,
            start,
            end: Instant::now(),
            bytes: 0,
            shards: 0,
        });
        out
    }
}

impl CsrShardSource for WaitTimer {
    fn rows(&self) -> usize {
        self.inner.rows()
    }
    fn cols(&self) -> usize {
        self.inner.cols()
    }
    fn reset(&mut self) -> IResult<()> {
        self.timed(|s| s.reset())
    }
    fn next_shard(&mut self) -> IResult<Option<CsrIntervalShard>> {
        self.timed(|s| s.next_shard())
    }
}
