//! Batch jobs and the bounded MPMC queue feeding the worker pool.
//!
//! The event loop parses requests off nonblocking sockets and groups them
//! into [`Batch`]es — all `/extract` requests naming the same wrapper
//! ride together so one worker resolves the wrapper once and amortizes a
//! single `WrapperScratch` across every document in the batch; everything
//! else travels as a singleton batch. Batches flow through the bounded
//! [`JobQueue`] (a full queue is the backpressure signal), workers answer
//! items through the [`CompletionQueue`], and the queue's waker kicks the
//! event loop to write responses out.
//!
//! Two failure contracts live here:
//!
//! * **No request is silently dropped.** A [`Batch`] answers every item
//!   or aborts it on drop — if a worker dies mid-batch (a panic escaping
//!   [`Batch::run`]'s per-item guard), the unwind drops the batch and the
//!   remaining items turn into [`Completion::Abort`]s, which the event
//!   loop converts into closed connections. Clients see a reset, never a
//!   hang.
//! * **A panic costs one item, not the batch.** [`Batch::run`] wraps each
//!   item in `catch_unwind` (plus the `serve.batch.panic` failpoint); the
//!   panicking document's request gets a `503`, the rest of the batch is
//!   processed and answered normally.
//!
//! Lock acquisitions recover from poisoning: a panicking worker must not
//! wedge the queues for the rest of the daemon's life (both hold plain
//! collections; no invariant spans a panic).

use crate::epoll::Waker;
use crate::http::{Request, Response};
use rextract_faults::fail_point;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// One parsed request in flight through the worker pool.
pub struct WorkItem {
    /// Event-loop connection token the response routes back to.
    pub conn: u64,
    /// Per-connection sequence number; pipelined responses are written in
    /// `seq` order regardless of batch completion order.
    pub seq: u64,
    pub req: Request,
    /// When the request finished parsing; the `/extract` deadline is
    /// measured from here, so queue time counts against the budget.
    pub arrived: Instant,
}

/// A worker's verdict on one item, routed back to the event loop.
pub enum Completion {
    /// Write this response on connection `conn` at position `seq`.
    Response { conn: u64, seq: u64, resp: Response },
    /// The worker died before answering; close the connection.
    Abort { conn: u64, seq: u64 },
}

impl Completion {
    pub fn conn(&self) -> u64 {
        match self {
            Completion::Response { conn, .. } | Completion::Abort { conn, .. } => *conn,
        }
    }
}

/// Completed items flowing back from workers to the event loop. Every
/// push wakes the loop's `epoll_wait` through the shared [`Waker`].
pub struct CompletionQueue {
    queue: Mutex<Vec<Completion>>,
    waker: Arc<Waker>,
}

impl CompletionQueue {
    pub fn new(waker: Arc<Waker>) -> CompletionQueue {
        CompletionQueue {
            queue: Mutex::new(Vec::new()),
            waker,
        }
    }

    pub fn push(&self, c: Completion) {
        self.queue.lock().unwrap_or_else(|e| e.into_inner()).push(c);
        self.waker.wake();
    }

    /// Take everything queued (event loop side).
    pub fn drain(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.queue.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

/// A group of requests processed by one worker in one go. `/extract`
/// requests for the same wrapper are coalesced so the wrapper lookup and
/// scratch allocation amortize across the whole batch; other endpoints
/// ride as singletons.
pub struct Batch {
    /// Batching key: the wrapper name for coalesced `/extract` requests,
    /// `None` for singleton batches.
    wrapper: Option<String>,
    items: Vec<WorkItem>,
    answered: Vec<bool>,
    completions: Arc<CompletionQueue>,
}

impl Batch {
    pub fn new(wrapper: Option<String>, completions: Arc<CompletionQueue>) -> Batch {
        Batch {
            wrapper,
            items: Vec::new(),
            answered: Vec::new(),
            completions,
        }
    }

    pub fn push(&mut self, item: WorkItem) {
        self.items.push(item);
        self.answered.push(false);
    }

    /// The coalescing key (`Some(wrapper)` for extract batches).
    pub fn wrapper(&self) -> Option<&str> {
        self.wrapper.as_deref()
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Answer item `idx`. Idempotent per item; the first answer wins.
    fn respond(&mut self, idx: usize, resp: Response) {
        if std::mem::replace(&mut self.answered[idx], true) {
            return;
        }
        let item = &self.items[idx];
        self.completions.push(Completion::Response {
            conn: item.conn,
            seq: item.seq,
            resp,
        });
    }

    /// Process every item with `f`, answering each through the completion
    /// queue. A panic inside `f` — or the `serve.batch.panic` failpoint —
    /// costs only that item (it gets a `503`); the rest of the batch is
    /// still processed. Consumes the batch; anything left unanswered when
    /// it drops (a panic that escapes even this guard) becomes an abort.
    pub fn run(mut self, mut f: impl FnMut(&WorkItem) -> Response) {
        for idx in 0..self.items.len() {
            let item = &self.items[idx];
            let verdict = catch_unwind(AssertUnwindSafe(|| {
                fail_point!("serve.batch.panic");
                f(item)
            }));
            let resp = verdict.unwrap_or_else(|_| {
                Response::error(503, "worker panicked processing this request")
            });
            self.respond(idx, resp);
        }
    }

    /// Answer every unanswered item with `f` *without* processing any —
    /// the dispatch-side rejection path (queue full or closed), where
    /// the whole batch must be refused explicitly rather than aborted.
    pub fn fail_all(mut self, mut f: impl FnMut(&WorkItem) -> Response) {
        for idx in 0..self.items.len() {
            if !self.answered[idx] {
                let resp = f(&self.items[idx]);
                self.respond(idx, resp);
            }
        }
    }
}

impl Drop for Batch {
    /// The no-silent-drop guarantee: whatever this batch never answered
    /// is aborted so the event loop closes those connections instead of
    /// leaving clients waiting on a response that will never come.
    fn drop(&mut self) {
        for (idx, answered) in self.answered.iter().enumerate() {
            if !answered {
                let item = &self.items[idx];
                self.completions.push(Completion::Abort {
                    conn: item.conn,
                    seq: item.seq,
                });
            }
        }
    }
}

struct Inner<T> {
    jobs: VecDeque<T>,
    open: bool,
}

/// Fixed-capacity job queue (see module docs).
pub struct JobQueue<T> {
    inner: Mutex<Inner<T>>,
    capacity: usize,
    not_empty: Condvar,
}

impl<T> JobQueue<T> {
    pub fn new(capacity: usize) -> JobQueue<T> {
        JobQueue {
            inner: Mutex::new(Inner {
                jobs: VecDeque::with_capacity(capacity),
                open: true,
            }),
            capacity: capacity.max(1),
            not_empty: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Admit a job unless the queue is full or closed; returns the job
    /// back on refusal so the caller can reject it explicitly.
    pub fn try_push(&self, job: T) -> Result<usize, T> {
        let mut guard = self.lock();
        if !guard.open || guard.jobs.len() >= self.capacity {
            return Err(job);
        }
        guard.jobs.push_back(job);
        let depth = guard.jobs.len();
        drop(guard);
        self.not_empty.notify_one();
        Ok(depth)
    }

    /// Block until a job is available or the queue is closed *and* empty.
    pub fn pop(&self) -> Option<(T, usize)> {
        let mut guard = self.lock();
        loop {
            if let Some(job) = guard.jobs.pop_front() {
                let depth = guard.jobs.len();
                return Some((job, depth));
            }
            if !guard.open {
                return None;
            }
            guard = self
                .not_empty
                .wait(guard)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Stop admitting jobs; wake every blocked worker. Already-admitted
    /// jobs will still be popped (drain semantics). Idempotent.
    pub fn close(&self) {
        self.lock().open = false;
        self.not_empty.notify_all();
    }

    pub fn len(&self) -> usize {
        self.lock().jobs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{parse_request, Parse};
    use std::sync::Arc;

    #[test]
    fn push_pop_fifo() {
        let q = JobQueue::new(4);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.pop().map(|(j, _)| j), Some(1));
        assert_eq!(q.pop().map(|(j, _)| j), Some(2));
    }

    #[test]
    fn full_queue_refuses() {
        let q = JobQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err(3));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn close_drains_then_ends() {
        let q = JobQueue::new(4);
        q.try_push(7).unwrap();
        q.close();
        assert_eq!(q.try_push(8), Err(8), "closed queue admits nothing");
        assert_eq!(q.pop().map(|(j, _)| j), Some(7), "admitted jobs drain");
        assert!(q.pop().is_none(), "then the pool sees the end");
    }

    #[test]
    fn close_wakes_blocked_workers() {
        let q = Arc::new(JobQueue::<u32>::new(4));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert!(h.join().unwrap().is_none());
    }

    #[test]
    fn queue_survives_a_panicked_holder() {
        let q = Arc::new(JobQueue::new(4));
        let q2 = Arc::clone(&q);
        // A worker that panics after touching the queue must not wedge it.
        let _ = std::thread::spawn(move || {
            q2.try_push(1).ok();
            panic!("worker dies");
        })
        .join();
        assert_eq!(q.pop().map(|(j, _)| j), Some(1));
        assert!(q.try_push(2).is_ok());
    }

    fn item(conn: u64, seq: u64) -> WorkItem {
        let Parse::Complete(req, _) = parse_request(b"GET /healthz HTTP/1.1\r\n\r\n") else {
            panic!("fixture request must parse");
        };
        WorkItem {
            conn,
            seq,
            req,
            arrived: std::time::Instant::now(),
        }
    }

    fn batch_fixture(n: u64) -> (Batch, Arc<CompletionQueue>) {
        let waker = Arc::new(crate::epoll::Waker::new().unwrap());
        let completions = Arc::new(CompletionQueue::new(waker));
        let mut batch = Batch::new(Some("demo".into()), Arc::clone(&completions));
        for seq in 0..n {
            batch.push(item(1, seq));
        }
        (batch, completions)
    }

    #[test]
    fn batch_answers_every_item_in_order() {
        let (batch, completions) = batch_fixture(3);
        batch.run(|it| Response::text(200, format!("seq={}", it.seq)));
        let done = completions.drain();
        assert_eq!(done.len(), 3);
        for (i, c) in done.iter().enumerate() {
            let Completion::Response { seq, resp, .. } = c else {
                panic!("expected a response");
            };
            assert_eq!(*seq, i as u64);
            assert_eq!(resp.body, format!("seq={i}"));
        }
    }

    #[test]
    fn item_panic_costs_only_that_item() {
        let (batch, completions) = batch_fixture(3);
        batch.run(|it| {
            if it.seq == 1 {
                panic!("document 1 explodes");
            }
            Response::text(200, "ok")
        });
        let done = completions.drain();
        assert_eq!(done.len(), 3, "no item silently dropped");
        let statuses: Vec<u16> = done
            .iter()
            .map(|c| match c {
                Completion::Response { resp, .. } => resp.status,
                Completion::Abort { .. } => panic!("panic must answer, not abort"),
            })
            .collect();
        assert_eq!(statuses, [200, 503, 200]);
    }

    #[test]
    fn dropped_batch_aborts_unanswered_items() {
        let (mut batch, completions) = batch_fixture(3);
        batch.respond(0, Response::text(200, "answered before the crash"));
        drop(batch); // a worker death unwinds the popped batch
        let done = completions.drain();
        assert_eq!(done.len(), 3, "every item accounted for");
        assert!(matches!(done[0], Completion::Response { seq: 0, .. }));
        assert!(matches!(done[1], Completion::Abort { seq: 1, .. }));
        assert!(matches!(done[2], Completion::Abort { seq: 2, .. }));
    }

    #[test]
    fn fail_all_answers_instead_of_aborting() {
        let (batch, completions) = batch_fixture(3);
        batch.fail_all(|_| Response::text(503, "overloaded"));
        let done = completions.drain();
        assert_eq!(done.len(), 3, "a refused batch answers every item");
        for c in &done {
            let Completion::Response { resp, .. } = c else {
                panic!("refusal must answer, not abort");
            };
            assert_eq!(resp.status, 503);
        }
    }
}
