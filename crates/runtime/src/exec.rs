//! Minimal multi-worker async executor (no dependencies, std only).
//!
//! The paper's serving workload (ROADMAP item 2) is
//! connection-per-task: 10⁵–10⁶ concurrent clients on a handful of
//! cores, where parking a *task* (a queued [`Waker`]) beats parking a
//! *thread* by three orders of magnitude in memory and context-switch
//! cost. This module is the substrate for that regime:
//!
//! * [`Executor::new(workers)`](Executor::new) starts a fixed pool of
//!   worker threads draining one shared injector run queue (a
//!   `Mutex<VecDeque>` plus a `Condvar` for parked workers).
//! * [`Executor::spawn`] makes one heap allocation per task: the
//!   scheduling state, the future (inline, pinned in place) and the
//!   join slot its output lands in. It pushes the task on the run
//!   queue first and only then records it for shutdown cancellation,
//!   so a worker can start the task while `spawn` is still
//!   bookkeeping. The returned [`JoinHandle`] points into the same
//!   allocation and can be either `.await`ed from another task or
//!   synchronously [`JoinHandle::join`]ed from a plain thread.
//! * [`block_on`] drives any future to completion on the calling
//!   thread with a park/unpark waker — the bridge from synchronous
//!   `main`/tests into async code.
//!
//! ## Where a request's time goes
//!
//! Medians from the benchmark's traced `kv-open` run (one worker, 50k
//! requests/s, 2-CPU x86 VM, six 4 s runs):
//!
//! | stage | what it covers | p50 |
//! |---|---|---|
//! | spawn | allocate the task, push it on the queue, register it | ≈0.65 µs |
//! | start | spawn return to the first poll, worker spinning | ≈0.55 µs |
//! | start | the same, worker parked (park→wake round trip) | ≈6–7 µs |
//! | poll | the request itself: shard lock plus map operation | ≈0.5 µs |
//!
//! About 1% of traced requests are first polled before their spawn
//! returns; their start stage counts as zero.
//!
//! A spawn used to make three allocations (join slot, boxed future,
//! task), two of which the worker freed. Blocks freed on another
//! thread than the allocating one make allocation the allocator's slow
//! path: ≈140–230 ns against ≈25 ns per 192-byte `Box` with glibc
//! malloc on this VM. The one block a
//! task has now is freed when the last of its handle, its queue entry
//! and its registry `Weak` goes, usually at the spawner's next
//! registry prune. In eight alternating 8 s `kv-open` pairs, the
//! single allocation alone moved the request p50 from 2.07 to
//! 1.75 µs; in eight more, queueing before registering moved it from
//! 1.76 to 1.50 µs.
//!
//! The idle path is spin-then-park, because a `futex_wake` per notify
//! and the sleep/wake round trip of a parked worker cost more than the
//! whole spawn:
//!
//! * An idle worker watches an atomic mirror of the queue length for
//!   up to `SPIN_WINDOW_NS` (100 µs) through [`relax::Spin`], so an
//!   oversubscribed host still yields. It parks once the window
//!   closes. At most one worker spins at a time, none does where every
//!   poll yields ([`relax::yields_every_poll`]), and the spinner
//!   watches for shutdown.
//! * The queue counts its parked workers under its mutex, and an
//!   enqueue notifies the condvar only when one is parked (a notify
//!   is a `futex_wake` syscall even with no waiter).
//! * A task's completion notifies its join slot only when a thread is
//!   blocked in [`JoinHandle::join`]; detached tasks pay nothing.
//!
//! Wakeups go through a per-task state machine (idle / scheduled /
//! running / notified) so a wake that races with a poll neither gets
//! lost nor double-enqueues the task — the standard executor
//! construction, kept deliberately small. There is no I/O reactor and
//! no timer wheel here: those live with the workloads that need them
//! (`asl-dbsim`'s open-loop pacer brings its own).
//!
//! ```
//! use asl_runtime::exec::{block_on, Executor};
//!
//! let exec = Executor::new(2);
//! let handle = exec.spawn(async { 6 * 7 });
//! assert_eq!(block_on(handle), 42);
//! ```

use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, Weak};
use std::task::{Context, Poll, Wake, Waker};

use crate::clock::{self, now_ns};
use crate::relax;

/// How long an idle worker spins on the run queue before it parks.
///
/// Sized against the park→wake round trip (≈5–7 µs from `enqueue` to
/// the parked worker's first poll, 2-CPU x86 VM): a worker parks only
/// after it has idled for ≈15 round trips, so the round trip adds at
/// most ≈7% to the idle gap it follows, while an idle executor still
/// hands its CPU back within 0.1 ms.
const SPIN_WINDOW_NS: u64 = 100_000;

/// Task is not queued and not running; a wake must enqueue it.
const IDLE: u8 = 0;
/// Task sits in the run queue awaiting a worker.
const SCHEDULED: u8 = 1;
/// A worker is polling the task right now.
const RUNNING: u8 = 2;
/// A wake arrived mid-poll; the worker re-enqueues after polling.
const NOTIFIED: u8 = 3;
/// The future returned `Ready`; all further wakes are no-ops.
const COMPLETE: u8 = 4;

/// A spawned task as the run queue, the registry and shutdown see it,
/// whatever its future type.
trait Runnable: Send + Sync {
    /// Poll the task once; a worker calls this after popping it.
    fn run(self: Arc<Self>);
    /// Drop the future in place and mark the task complete.
    fn cancel(&self);
    fn is_complete(&self) -> bool;
}

/// A task's output as its [`JoinHandle`] sees it.
trait Join<T>: Send + Sync {
    fn slot(&self) -> &JoinSlot<T>;
}

/// Everything one spawn needs, in one allocation.
struct Task<F: Future> {
    state: AtomicU8,
    exec: Weak<Inner>,
    /// The future, dropped in place (set to `None`) on completion or
    /// cancellation and never moved: polls pin it where it lies. A
    /// `Mutex` rather than an `UnsafeCell`: the state machine already
    /// guarantees exclusive polling, but the lock makes that guarantee
    /// locally checkable and costs nothing off the hot paths measured
    /// here.
    future: Mutex<Option<F>>,
    join: JoinSlot<F::Output>,
}

impl<F> Wake for Task<F>
where
    F: Future + Send + 'static,
    F::Output: Send + 'static,
{
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    /// Transition for an incoming wake; enqueue when it wins.
    fn wake_by_ref(self: &Arc<Self>) {
        loop {
            let cur = self.state.load(Ordering::Acquire);
            let next = match cur {
                IDLE => SCHEDULED,
                RUNNING => NOTIFIED,
                SCHEDULED | NOTIFIED | COMPLETE => return,
                _ => unreachable!("task state {cur}"),
            };
            if self
                .state
                .compare_exchange(cur, next, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                if next == SCHEDULED {
                    if let Some(inner) = self.exec.upgrade() {
                        inner.enqueue(self.clone());
                    }
                }
                return;
            }
        }
    }
}

impl<F> Runnable for Task<F>
where
    F: Future + Send + 'static,
    F::Output: Send + 'static,
{
    fn run(self: Arc<Self>) {
        self.state.store(RUNNING, Ordering::Release);
        let waker = Waker::from(self.clone());
        let mut cx = Context::from_waker(&waker);
        let mut slot = self.future.lock().unwrap();
        let Some(fut) = slot.as_mut() else {
            self.state.store(COMPLETE, Ordering::Release);
            return;
        };
        // SAFETY: the future lives inside this task's `Arc` allocation,
        // which does not move, and is only ever dropped in place
        // (`*slot = None`, here and in `cancel`), never moved out.
        let fut = unsafe { Pin::new_unchecked(fut) };
        match fut.poll(&mut cx) {
            Poll::Ready(value) => {
                // Captured values drop before the output is published,
                // so a joiner that sees the output sees them gone.
                *slot = None;
                drop(slot);
                self.state.store(COMPLETE, Ordering::Release);
                self.join.complete(value);
            }
            Poll::Pending => {
                drop(slot);
                // RUNNING -> IDLE; if a wake slipped in (NOTIFIED),
                // re-enqueue so it is not lost.
                if self
                    .state
                    .compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
                {
                    self.state.store(SCHEDULED, Ordering::Release);
                    if let Some(inner) = self.exec.upgrade() {
                        inner.enqueue(self);
                    }
                }
            }
        }
    }

    fn cancel(&self) {
        // Dropped under the task's own lock: a destructor that cascades
        // (guard drop → handoff → wake) only touches other tasks' state
        // and the run queue, never this future slot.
        *self.future.lock().unwrap_or_else(PoisonError::into_inner) = None;
        self.state.store(COMPLETE, Ordering::Release);
    }

    fn is_complete(&self) -> bool {
        self.state.load(Ordering::Acquire) == COMPLETE
    }
}

impl<F> Join<F::Output> for Task<F>
where
    F: Future + Send,
    F::Output: Send,
{
    fn slot(&self) -> &JoinSlot<F::Output> {
        &self.join
    }
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

struct Inner {
    queue: Mutex<RunQueue>,
    /// Mirror of the run queue's length, stored under the queue mutex
    /// so a spinning worker and [`Executor::queued`] can watch it
    /// without taking the lock. Relaxed: it publishes nothing; a
    /// worker that sees it non-zero takes the mutex to pop.
    len: AtomicUsize,
    available: Condvar,
    /// Whether a worker is in its spin window; at most one is.
    /// Relaxed: a gate that publishes nothing.
    spinning: AtomicBool,
    /// Set (under the queue mutex, so the check-then-wait in
    /// `next_task` cannot miss it) when the executor drops.
    shutdown: AtomicBool,
    /// Every spawned task, so shutdown can *cancel* (drop the future
    /// of) tasks that are parked on external primitives — e.g. an
    /// async-mutex wait queue — and would otherwise leak their wait
    /// slot or a granted lock. Pruned amortized-O(1) per spawn.
    tasks: Mutex<TaskRegistry>,
}

struct RunQueue {
    tasks: VecDeque<Arc<dyn Runnable>>,
    /// Workers blocked on `Inner::available`. An enqueue notifies only
    /// when this is non-zero: std's futex condvar makes a `futex_wake`
    /// syscall on every notify, waiter or not.
    parked: usize,
}

/// A registered task's allocation outlives its completion until the
/// prune that drops its `Weak`, so completed tasks pin at most
/// `prune_at` (twice the live count, at least 64) allocations.
struct TaskRegistry {
    list: Vec<Weak<dyn Runnable>>,
    prune_at: usize,
}

impl Inner {
    fn enqueue(&self, task: Arc<dyn Runnable>) {
        let mut q = self.queue.lock().unwrap();
        q.tasks.push_back(task);
        self.len.store(q.tasks.len(), Ordering::Relaxed);
        let wake = q.parked > 0;
        drop(q);
        if wake {
            self.available.notify_one();
        }
    }

    fn register(&self, task: Weak<dyn Runnable>) {
        let mut reg = self.tasks.lock().unwrap();
        if reg.list.len() >= reg.prune_at {
            reg.list
                .retain(|w| w.upgrade().is_some_and(|t| !t.is_complete()));
            reg.prune_at = (reg.list.len() * 2).max(64);
        }
        reg.list.push(task);
    }

    /// Next task to poll, or `None` once the executor shuts down.
    ///
    /// An idle worker first spins on `len` for up to
    /// [`SPIN_WINDOW_NS`] (one worker at a time, and never where every
    /// poll yields), then parks on `available`. The empty check and the
    /// `parked` increment happen under the queue mutex that `enqueue`
    /// pushes under, so an enqueue either sees the parked worker and
    /// notifies it or is seen by it.
    fn next_task(&self) -> Option<Arc<dyn Runnable>> {
        let mut spun = false;
        let mut q = self.queue.lock().unwrap();
        loop {
            if let Some(t) = q.tasks.pop_front() {
                self.len.store(q.tasks.len(), Ordering::Relaxed);
                return Some(t);
            }
            if self.shutdown.load(Ordering::Acquire) {
                return None;
            }
            if !spun && !relax::yields_every_poll() && !self.spinning.swap(true, Ordering::Relaxed)
            {
                drop(q);
                self.spin_for_work();
                self.spinning.store(false, Ordering::Relaxed);
                spun = true;
                q = self.queue.lock().unwrap();
                continue;
            }
            q.parked += 1;
            q = self.available.wait(q).unwrap();
            q.parked -= 1;
        }
    }

    /// Spin until the run queue looks non-empty, shutdown begins, or
    /// the spin window closes.
    fn spin_for_work(&self) {
        let end = now_ns().saturating_add(SPIN_WINDOW_NS);
        // The coarse cache may date from before this worker last
        // parked; a stale reading would only stretch the window, but
        // start it fresh.
        clock::coarse_resync();
        let mut spin = relax::Spin::new();
        while self.len.load(Ordering::Relaxed) == 0 && !self.shutdown.load(Ordering::Relaxed) {
            if spin.relax() {
                clock::coarse_resync();
            }
            if clock::coarse_now_ns() >= end {
                return;
            }
        }
    }
}

/// A fixed pool of worker threads draining a shared run queue.
///
/// Dropping the executor signals shutdown and joins the workers;
/// tasks still queued are dropped (their futures run destructors, so
/// cancel-safe primitives — e.g. `asl_locks`' async mutex wait nodes
/// — unlink themselves).
pub struct Executor {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Executor {
    /// Start `workers` worker threads (at least one).
    pub fn new(workers: usize) -> Self {
        let inner = Arc::new(Inner {
            queue: Mutex::new(RunQueue {
                tasks: VecDeque::new(),
                parked: 0,
            }),
            len: AtomicUsize::new(0),
            available: Condvar::new(),
            spinning: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            tasks: Mutex::new(TaskRegistry {
                list: Vec::new(),
                prune_at: 64,
            }),
        });
        let workers = (0..workers.max(1))
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("asl-exec-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn executor worker")
            })
            .collect();
        Executor { inner, workers }
    }

    /// Spawn a future onto the pool; the handle can be `.await`ed or
    /// synchronously [`JoinHandle::join`]ed.
    ///
    /// The task is queued before it is registered for cancellation, so
    /// it may run, even complete, before `spawn` returns. Both happen
    /// before the return, and dropping the executor needs `&mut`, so
    /// shutdown still sees every task.
    pub fn spawn<F>(&self, future: F) -> JoinHandle<F::Output>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        let task = Arc::new(Task {
            state: AtomicU8::new(SCHEDULED),
            exec: Arc::downgrade(&self.inner),
            future: Mutex::new(Some(future)),
            join: JoinSlot {
                state: Mutex::new(JoinState {
                    value: None,
                    waker: None,
                    done: false,
                    blocked: false,
                }),
                ready: Condvar::new(),
            },
        });
        self.inner.enqueue(task.clone());
        self.inner
            .register(Arc::downgrade(&task) as Weak<dyn Runnable>);
        JoinHandle { task }
    }

    /// Number of tasks currently sitting in the run queue (racy
    /// diagnostic; excludes tasks being polled).
    pub fn queued(&self) -> usize {
        self.inner.len.load(Ordering::Relaxed)
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        {
            let _q = self.inner.queue.lock().unwrap();
            self.inner.shutdown.store(true, Ordering::Release);
        }
        self.inner.available.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Cancel every unfinished task: drop its future so cancel-safe
        // primitives (async-mutex wait nodes, held guards) unlink and
        // release.
        let list = std::mem::take(&mut self.inner.tasks.lock().unwrap().list);
        for task in list.iter().filter_map(Weak::upgrade) {
            task.cancel();
        }
        // Drain the run queue (cancelled shells plus anything wakes
        // re-enqueued during cancellation); swap out under the lock so
        // no destructor runs while it is held.
        let drained = std::mem::take(&mut self.inner.queue.lock().unwrap().tasks);
        drop(drained);
    }
}

fn worker_loop(inner: &Inner) {
    while let Some(task) = inner.next_task() {
        task.run();
    }
}

// ---------------------------------------------------------------------------
// JoinHandle
// ---------------------------------------------------------------------------

struct JoinState<T> {
    value: Option<T>,
    waker: Option<Waker>,
    done: bool,
    /// A thread is blocked in [`JoinHandle::join`]; completion
    /// notifies `ready` only then (a notify is a syscall).
    blocked: bool,
}

struct JoinSlot<T> {
    state: Mutex<JoinState<T>>,
    ready: Condvar,
}

impl<T> JoinSlot<T> {
    /// Publish the output and wake whoever waits for it.
    fn complete(&self, value: T) {
        let mut st = self.state.lock().unwrap();
        st.value = Some(value);
        st.done = true;
        if let Some(w) = st.waker.take() {
            drop(st);
            w.wake();
        } else if st.blocked {
            drop(st);
            self.ready.notify_all();
        }
    }
}

/// Completion handle for a spawned task: a [`Future`] yielding the
/// task's output, or a blocking [`JoinHandle::join`] from sync code.
pub struct JoinHandle<T> {
    task: Arc<dyn Join<T>>,
}

impl<T> JoinHandle<T> {
    /// Block the calling thread until the task completes.
    ///
    /// # Panics
    /// Panics if the output was already taken by an earlier poll.
    pub fn join(self) -> T {
        let slot = self.task.slot();
        let mut st = slot.state.lock().unwrap();
        while !st.done {
            st.blocked = true;
            st = slot.ready.wait(st).unwrap();
        }
        st.value.take().expect("join output already taken")
    }

    /// Whether the task has completed (non-blocking).
    pub fn is_finished(&self) -> bool {
        self.task.slot().state.lock().unwrap().done
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut st = self.task.slot().state.lock().unwrap();
        if st.done {
            Poll::Ready(st.value.take().expect("JoinHandle polled after Ready"))
        } else {
            st.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

// ---------------------------------------------------------------------------
// block_on
// ---------------------------------------------------------------------------

struct ThreadUnparker {
    thread: std::thread::Thread,
}

impl Wake for ThreadUnparker {
    fn wake(self: Arc<Self>) {
        self.thread.unpark();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.thread.unpark();
    }
}

/// Drive `future` to completion on the calling thread.
///
/// Uses `thread::park` between polls; `park` may also return
/// spuriously, which just costs one extra poll. Re-entrant use (a
/// `block_on` inside a future already being `block_on`-driven on the
/// same thread) is fine: each call has its own waker.
pub fn block_on<F: Future>(future: F) -> F::Output {
    let mut future = std::pin::pin!(future);
    let waker = Waker::from(Arc::new(ThreadUnparker {
        thread: std::thread::current(),
    }));
    let mut cx = Context::from_waker(&waker);
    loop {
        match future.as_mut().poll(&mut cx) {
            Poll::Ready(v) => return v,
            Poll::Pending => std::thread::park(),
        }
    }
}

/// A future that yields to the run queue once, then completes — the
/// async analogue of `thread::yield_now`, used by fairness tests and
/// cooperative long-running tasks.
pub fn yield_now() -> YieldNow {
    YieldNow { yielded: false }
}

/// Future returned by [`yield_now`].
#[derive(Debug)]
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn block_on_ready() {
        assert_eq!(block_on(async { 7 }), 7);
    }

    #[test]
    fn spawn_and_join() {
        let exec = Executor::new(2);
        let h = exec.spawn(async { 1 + 1 });
        assert_eq!(h.join(), 2);
    }

    #[test]
    fn join_handle_awaitable() {
        let exec = Executor::new(2);
        let a = exec.spawn(async { 20 });
        let b = exec.spawn(async move { a.await + 22 });
        assert_eq!(block_on(b), 42);
    }

    #[test]
    fn many_tasks_complete() {
        let exec = Executor::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..1_000)
            .map(|_| {
                let c = counter.clone();
                exec.spawn(async move {
                    yield_now().await;
                    c.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 1_000);
    }

    /// Counts its drops: a destructor that observes cancellation.
    struct NoteDrop(Arc<AtomicUsize>);

    impl Drop for NoteDrop {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A one-shot channel: `Recv` parks its task until `send`.
    struct Oneshot {
        state: Mutex<(Option<u64>, Option<Waker>)>,
    }

    impl Oneshot {
        fn new() -> Arc<Self> {
            Arc::new(Oneshot {
                state: Mutex::new((None, None)),
            })
        }

        fn send(&self, v: u64) {
            let mut st = self.state.lock().unwrap();
            st.0 = Some(v);
            if let Some(w) = st.1.take() {
                drop(st);
                w.wake();
            }
        }
    }

    struct Recv(Arc<Oneshot>);

    impl Future for Recv {
        type Output = u64;
        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<u64> {
            let mut st = self.0.state.lock().unwrap();
            if let Some(v) = st.0.take() {
                Poll::Ready(v)
            } else {
                st.1 = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }

    #[test]
    fn cross_thread_wake() {
        // A future parked on a channel-like cell, woken from a plain
        // thread: the executor must deliver the wake and finish.
        let cell = Oneshot::new();
        let exec = Executor::new(1);
        let h = exec.spawn(Recv(cell.clone()));
        let sender = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(10));
            cell.send(99);
        });
        assert_eq!(h.join(), 99);
        sender.join().unwrap();
    }

    #[test]
    fn blocked_join_wakes_on_completion() {
        // Completion notifies `ready` only for a blocked joiner: hold
        // the task until `join` has blocked, then complete it.
        let cell = Oneshot::new();
        let exec = Executor::new(1);
        let h = exec.spawn(Recv(cell.clone()));
        let task = h.task.clone();
        let (tx, rx) = std::sync::mpsc::channel();
        let joiner = std::thread::spawn(move || tx.send(h.join()).unwrap());
        while !task.slot().state.lock().unwrap().blocked {
            std::thread::yield_now();
        }
        cell.send(7);
        let got = rx.recv_timeout(std::time::Duration::from_secs(10));
        assert_eq!(got.expect("the blocked join was never woken"), 7);
        joiner.join().unwrap();
    }

    #[test]
    fn captures_drop_at_completion_while_the_handle_lives() {
        let dropped = Arc::new(AtomicUsize::new(0));
        let exec = Executor::new(1);
        let d = NoteDrop(dropped.clone());
        let h = exec.spawn(async move {
            let _keep = d;
            3
        });
        while !h.is_finished() {
            std::thread::yield_now();
        }
        assert_eq!(dropped.load(Ordering::Relaxed), 1);
        assert_eq!(h.join(), 3);
    }

    #[test]
    fn large_output_round_trips() {
        let exec = Executor::new(1);
        let big = |seed: u8| -> [u8; 4096] { std::array::from_fn(|i| (i as u8) ^ seed) };
        assert_eq!(exec.spawn(async move { big(1) }).join(), big(1));
        let h = exec.spawn(async move { big(2) });
        assert!(exec.spawn(async move { h.await == big(2) }).join());
        assert_eq!(block_on(exec.spawn(async move { big(3) })), big(3));
    }

    #[test]
    fn waking_a_stored_waker_after_drop_is_a_no_op() {
        let cell = Oneshot::new();
        let exec = Executor::new(1);
        let h = exec.spawn(Recv(cell.clone()));
        while cell.state.lock().unwrap().1.is_none() {
            std::thread::yield_now();
        }
        // Cancelled, and the stored waker now holds the task's last
        // reference: waking it must neither enqueue nor poll.
        drop(exec);
        assert!(!h.is_finished());
        drop(h);
        cell.send(5);
        assert!(cell.state.lock().unwrap().1.is_none());
    }

    #[test]
    fn spawners_across_the_spin_window_run_every_task_once() {
        // Plain-thread spawners with gaps that land inside a worker's
        // spin window, at its middle, and past it (the worker parks
        // between spawns). Detached tasks: nothing joins, so a lost
        // wakeup shows as a task that never runs.
        const SPAWNERS: usize = 2;
        const PER_SPAWNER: usize = 40;
        for workers in [1, 2, 4] {
            for gap in [0, SPIN_WINDOW_NS / 2, 2 * SPIN_WINDOW_NS] {
                let exec = Executor::new(workers);
                let runs: Arc<Vec<AtomicUsize>> = Arc::new(
                    (0..SPAWNERS * PER_SPAWNER)
                        .map(|_| AtomicUsize::new(0))
                        .collect(),
                );
                std::thread::scope(|s| {
                    for t in 0..SPAWNERS {
                        let (exec, runs) = (&exec, &runs);
                        s.spawn(move || {
                            for i in 0..PER_SPAWNER {
                                let runs = runs.clone();
                                drop(exec.spawn(async move {
                                    runs[t * PER_SPAWNER + i].fetch_add(1, Ordering::Relaxed);
                                }));
                                clock::busy_wait_ns(gap);
                            }
                        });
                    }
                });
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                while runs.iter().any(|r| r.load(Ordering::Relaxed) == 0) {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "lost wakeup: {workers} workers, gap {gap} ns"
                    );
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                drop(exec);
                assert!(
                    runs.iter().all(|r| r.load(Ordering::Relaxed) == 1),
                    "a task ran twice: {workers} workers, gap {gap} ns"
                );
            }
        }
    }

    #[test]
    fn drop_while_spinning_returns_promptly_and_cancels() {
        let dropped = Arc::new(AtomicUsize::new(0));
        let exec = Executor::new(1);
        for _ in 0..4 {
            let d = NoteDrop(dropped.clone());
            drop(exec.spawn(async move {
                let _keep = d;
                Recv(Oneshot::new()).await
            }));
        }
        // Catch the worker inside its spin window: every no-op spawn
        // ends in a fresh window (or starts a parked worker into one).
        if !relax::yields_every_poll() {
            let give_up = std::time::Instant::now() + std::time::Duration::from_secs(5);
            let caught = 'caught: loop {
                if std::time::Instant::now() > give_up {
                    break false;
                }
                drop(exec.spawn(async {}));
                let t = std::time::Instant::now();
                while t.elapsed() < std::time::Duration::from_micros(50) {
                    if exec.inner.spinning.load(Ordering::Relaxed) {
                        break 'caught true;
                    }
                }
            };
            assert!(caught, "the idle worker never spun");
        }
        let t = std::time::Instant::now();
        drop(exec);
        assert!(t.elapsed() < std::time::Duration::from_secs(1));
        assert_eq!(dropped.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn wake_during_poll_not_lost() {
        // A future that wakes itself N times before completing: every
        // self-wake lands while the task is RUNNING, exercising the
        // NOTIFIED re-enqueue path.
        struct SelfWake {
            remaining: usize,
        }
        impl Future for SelfWake {
            type Output = ();
            fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                if self.remaining == 0 {
                    Poll::Ready(())
                } else {
                    self.remaining -= 1;
                    cx.waker().wake_by_ref();
                    Poll::Pending
                }
            }
        }
        let exec = Executor::new(1);
        exec.spawn(SelfWake { remaining: 100 }).join();
    }

    #[test]
    fn drop_cancels_queued_tasks() {
        // Tasks still queued at drop never run, but their futures are
        // dropped (destructors observe cancellation).
        let dropped = Arc::new(AtomicUsize::new(0));
        {
            let exec = Executor::new(1);
            // Park the single worker on a never-ready future...
            struct Never;
            impl Future for Never {
                type Output = ();
                fn poll(self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<()> {
                    Poll::Pending
                }
            }
            let _h = exec.spawn(Never);
            // ...then pile tasks behind it and drop the executor. Some
            // may run (worker timing), but every unrun future must be
            // dropped.
            for _ in 0..16 {
                let d = NoteDrop(dropped.clone());
                drop(exec.spawn(async move {
                    let _keep = d;
                }));
            }
        }
        assert_eq!(dropped.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn zero_workers_clamped_to_one() {
        let exec = Executor::new(0);
        assert_eq!(exec.spawn(async { 5 }).join(), 5);
    }
}
