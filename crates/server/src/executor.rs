//! The daemon's executor: a fixed set of persistent threads that run
//! owned jobs.
//!
//! A [`Daemon`](crate::Daemon) spawns its executor's threads once, when
//! it binds, so serving requests spawns none; the threads exit when the
//! daemon is dropped. Each thread reserves a 2 GiB stack, since
//! traversals recurse once per tree level. Jobs are `'static` boxed
//! closures sent over a `std::sync::mpsc` channel and start in the order
//! they were sent.

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};

use grafter_obs::json::JsonWriter;
use grafter_runtime::RUN_STACK;

type Job = Box<dyn FnOnce() + Send>;

/// Counters shared with the executor threads.
#[derive(Default)]
struct Counters {
    /// Jobs started since the executor was built.
    started: AtomicU64,
    /// Jobs running right now.
    running: AtomicU64,
}

pub(crate) struct Executor {
    jobs: Sender<Job>,
    threads: Vec<JoinHandle<()>>,
    counters: Arc<Counters>,
}

impl Executor {
    /// Spawns `width` threads (at least one).
    ///
    /// # Errors
    ///
    /// The OS refused a thread; the ones already spawned are stopped.
    pub(crate) fn new(width: usize) -> io::Result<Executor> {
        let (sender, receiver) = mpsc::channel();
        let receiver = Arc::new(Mutex::new(receiver));
        let mut executor = Executor {
            jobs: sender,
            threads: Vec::with_capacity(width.max(1)),
            counters: Arc::default(),
        };
        for id in 0..width.max(1) {
            let (receiver, counters) = (Arc::clone(&receiver), Arc::clone(&executor.counters));
            let thread = thread::Builder::new()
                .name(format!("grafterd-exec-{id}"))
                .stack_size(RUN_STACK)
                .spawn(move || work(&receiver, &counters))?;
            executor.threads.push(thread);
        }
        Ok(executor)
    }

    /// The number of executor threads.
    pub(crate) fn width(&self) -> usize {
        self.threads.len()
    }

    /// Queues `job` to run on the next free thread.
    pub(crate) fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        self.jobs
            .send(Box::new(job))
            .expect("executor threads run until the executor drops");
    }

    /// Writes the `stats` method's `pool` object: `threads` and
    /// `spawned_total` are both the width, since every thread was spawned
    /// when the daemon bound; `jobs_executed` counts started jobs; `busy`
    /// threads run a job right now and the other `idle` ones wait.
    pub(crate) fn write_stats(&self, w: &mut JsonWriter) {
        let threads = self.threads.len() as u64;
        let busy = self.counters.running.load(Ordering::Relaxed).min(threads);
        w.begin_obj();
        w.key("threads").num(threads);
        w.key("spawned_total").num(threads);
        w.key("jobs_executed")
            .num(self.counters.started.load(Ordering::Relaxed));
        w.key("busy").num(busy);
        w.key("idle").num(threads - busy);
        w.end_obj();
    }
}

/// One executor thread: run jobs until the channel closes.
fn work(jobs: &Mutex<Receiver<Job>>, counters: &Counters) {
    loop {
        let job = {
            // The lock is held only while waiting for the next job, and
            // `recv` leaves the receiver whole even if it panicked. Jobs
            // are counted under the lock, so a job that started earlier
            // is already counted when a later one runs.
            let receiver = jobs.lock().unwrap_or_else(PoisonError::into_inner);
            let Ok(job) = receiver.recv() else {
                return;
            };
            counters.started.fetch_add(1, Ordering::Relaxed);
            counters.running.fetch_add(1, Ordering::Relaxed);
            job
        };
        // Jobs turn input panics into typed errors themselves
        // (`Session::run_input`); this guard keeps anything else that
        // unwinds from killing the thread or leaving `running` high.
        let _ = catch_unwind(AssertUnwindSafe(job));
        counters.running.fetch_sub(1, Ordering::Relaxed);
    }
}

impl Drop for Executor {
    /// Closes the channel and joins the threads once the queued jobs ran.
    fn drop(&mut self) {
        // Swapping in a sender of a fresh channel drops the threads' one.
        self.jobs = mpsc::channel().0;
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::{Duration, Instant};

    #[test]
    fn jobs_that_unwind_leave_every_thread_serving() {
        let executor = Executor::new(2).expect("spawn executor");
        for _ in 0..2 {
            executor.spawn(|| panic!("a job that unwinds"));
        }
        // Two jobs that each wait (up to 10 s) for the other to start: they
        // meet only if both threads survived the panics.
        let (arrived, (met, meetings)) = (Arc::new(AtomicUsize::new(0)), mpsc::channel());
        for _ in 0..2 {
            let (arrived, met) = (Arc::clone(&arrived), met.clone());
            executor.spawn(move || {
                arrived.fetch_add(1, Ordering::SeqCst);
                let deadline = Instant::now() + Duration::from_secs(10);
                while arrived.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
                    thread::sleep(Duration::from_millis(1));
                }
                let _ = met.send(arrived.load(Ordering::SeqCst));
            });
        }
        assert_eq!(meetings.recv().expect("a job finished"), 2);
    }
}
