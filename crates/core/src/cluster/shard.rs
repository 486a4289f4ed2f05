//! One control-plane shard: an [`Orchestrator`] pinned to a dedicated
//! thread, driven by a mailbox of closures.
//!
//! The orchestrator is deliberately `!Send` (its monitor and executor
//! handles are `Rc`-shared with the discrete-event engine), so a shard
//! never moves it; instead callers ship `FnOnce(&mut Orchestrator)`
//! jobs to the owning thread and read the answer back over a rendezvous
//! channel. The coordinator exploits the split shape of
//! [`ClusterShard::call`] / [`std::sync::mpsc::Receiver::recv`] to fan
//! a job out to every shard first and only then collect, so an
//! N-shard pass costs one slowest-shard latency, not the sum.

use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::JoinHandle;

use crate::orchestrator::{Orchestrator, OrchestratorBuilder};

/// A unit of work executed on the shard's thread. The orchestrator's
/// own registry is the only record of what the shard is running, so a
/// job needs nothing else.
pub(crate) type Job = Box<dyn FnOnce(&mut Orchestrator) + Send>;

/// The thread-owning half of a shard. Dropping it disconnects the
/// mailbox; the thread kills its remaining queries (flushing sinks and
/// ending subscriber streams) and exits, and the drop joins it.
pub(crate) struct ClusterShard {
    tx: Option<Sender<Job>>,
    thread: Option<JoinHandle<()>>,
}

impl ClusterShard {
    /// Builds the orchestrator *on* the new thread (it is `!Send`) and
    /// starts draining jobs.
    ///
    /// # Panics
    ///
    /// Panics if the OS refuses to spawn the thread.
    pub(crate) fn spawn(index: usize, builder: OrchestratorBuilder) -> Self {
        let (tx, rx) = mpsc::channel::<Job>();
        let thread = std::thread::Builder::new()
            .name(format!("netalytics-shard-{index}"))
            .spawn(move || {
                let mut orch = builder.build();
                while let Ok(job) = rx.recv() {
                    job(&mut orch);
                }
                orch.kill_all();
            })
            .expect("spawn cluster shard thread");
        ClusterShard {
            tx: Some(tx),
            thread: Some(thread),
        }
    }

    /// Ships `f` to the shard thread and returns the reply channel
    /// without waiting — the fan-out half of a parallel pass.
    ///
    /// # Panics
    ///
    /// Panics if the shard thread has exited (it only exits when the
    /// shard is dropped, so a send failure is a caller bug).
    pub(crate) fn call<R: Send + 'static>(
        &self,
        f: impl FnOnce(&mut Orchestrator) -> R + Send + 'static,
    ) -> Receiver<R> {
        let (reply, rx) = mpsc::sync_channel(1);
        let job: Job = Box::new(move |orch| {
            let _ = reply.send(f(orch));
        });
        self.tx
            .as_ref()
            .expect("shard running")
            .send(job)
            .expect("shard thread alive");
        rx
    }

    /// [`ClusterShard::call`] plus the blocking wait — for single-shard
    /// round trips.
    pub(crate) fn with<R: Send + 'static>(
        &self,
        f: impl FnOnce(&mut Orchestrator) -> R + Send + 'static,
    ) -> R {
        self.call(f).recv().expect("shard thread alive")
    }
}

impl Drop for ClusterShard {
    fn drop(&mut self) {
        self.tx.take();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}
