//! A minimal sequential chunk downloader (no mobility, no staging).

use simnet::{SimDuration, SimTime};
use xcache::ContentDigest;
use xia_addr::{Dag, Xid};
use xia_host::{App, FetchResult, HostCtx};

/// Fetches a list of chunk DAGs strictly in order, retrying failures with
/// a fixed backoff. Suitable for stationary hosts: it starts immediately
/// and does not manage network attachment.
#[derive(Debug)]
pub struct SeqFetcher {
    dags: Vec<Dag>,
    next: usize,
    in_flight: Option<(u64, SimTime)>,
    retry: SimDuration,
    /// `(completion time, cid, latency)` per fetched chunk, in order.
    pub completions: Vec<(SimTime, Xid, SimDuration)>,
    /// Total payload bytes received.
    pub bytes: u64,
    /// Failed attempts (retried).
    pub failures: u64,
    hash: ContentDigest,
    finished: Option<SimTime>,
}

impl SeqFetcher {
    /// Creates a fetcher for `dags`, retrying failed fetches after 500 ms.
    pub fn new(dags: Vec<Dag>) -> Self {
        SeqFetcher {
            dags,
            next: 0,
            in_flight: None,
            retry: SimDuration::from_millis(500),
            completions: Vec::new(),
            bytes: 0,
            failures: 0,
            hash: ContentDigest::new(),
            finished: None,
        }
    }

    /// Whether all chunks have completed.
    pub fn is_done(&self) -> bool {
        self.finished.is_some()
    }

    /// When the last chunk completed.
    pub fn finished_at(&self) -> Option<SimTime> {
        self.finished
    }

    /// [`ContentDigest`] of the verified chunks delivered, in order.
    pub fn content_digest(&self) -> [u8; 20] {
        self.hash.finish()
    }

    fn fetch_next(&mut self, ctx: &mut HostCtx<'_>) {
        if self.in_flight.is_some() {
            return;
        }
        let Some(dag) = self.dags.get(self.next).cloned() else {
            return;
        };
        let handle = ctx.xfetch_chunk(dag);
        self.in_flight = Some((handle, ctx.now()));
    }
}

impl App for SeqFetcher {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        self.fetch_next(ctx);
    }

    fn on_timer(&mut self, ctx: &mut HostCtx<'_>, _key: u8) {
        self.fetch_next(ctx);
    }

    fn on_fetch_complete(
        &mut self,
        ctx: &mut HostCtx<'_>,
        handle: u64,
        cid: Xid,
        result: FetchResult,
    ) {
        let Some((expected, started)) = self.in_flight else {
            return;
        };
        if expected != handle {
            return;
        }
        self.in_flight = None;
        match result {
            FetchResult::Complete(bytes) => {
                self.bytes += bytes.len() as u64;
                self.hash.push(&cid);
                self.completions.push((ctx.now(), cid, ctx.now() - started));
                self.next += 1;
                if self.next >= self.dags.len() {
                    self.finished = Some(ctx.now());
                } else {
                    self.fetch_next(ctx);
                }
            }
            FetchResult::NotFound | FetchResult::Failed => {
                self.failures += 1;
                ctx.set_app_timer(self.retry, 0);
            }
        }
    }
}
