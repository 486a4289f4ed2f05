//! Multi-producer multi-consumer channels with the `crossbeam-channel`
//! API, over `std::sync::mpsc` (itself a port of crossbeam's lock-free
//! queues). The receiving end sits behind a mutex so it can be cloned
//! and shared like crossbeam's; with one consumer — every use in the
//! NetAlytics crates — that lock is never contended.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

pub use std::sync::mpsc::{RecvError, RecvTimeoutError, SendError, TryRecvError, TrySendError};

enum Tx<T> {
    Bounded(mpsc::SyncSender<T>),
    Unbounded(mpsc::Sender<T>),
}

impl<T> Clone for Tx<T> {
    fn clone(&self) -> Self {
        match self {
            Tx::Bounded(s) => Tx::Bounded(s.clone()),
            Tx::Unbounded(s) => Tx::Unbounded(s.clone()),
        }
    }
}

/// The sending half of a channel.
pub struct Sender<T> {
    tx: Tx<T>,
    len: Arc<AtomicUsize>,
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        Sender {
            tx: self.tx.clone(),
            len: Arc::clone(&self.len),
        }
    }
}

impl<T> std::fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Sender { .. }")
    }
}

impl<T> Sender<T> {
    /// Sends, blocking while a bounded channel is full.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let r = match &self.tx {
            Tx::Bounded(s) => s.send(value),
            Tx::Unbounded(s) => s.send(value),
        };
        if r.is_ok() {
            self.len.fetch_add(1, Ordering::Relaxed);
        }
        r
    }

    /// Sends without blocking.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let r = match &self.tx {
            Tx::Bounded(s) => s.try_send(value),
            Tx::Unbounded(s) => s
                .send(value)
                .map_err(|SendError(v)| TrySendError::Disconnected(v)),
        };
        if r.is_ok() {
            self.len.fetch_add(1, Ordering::Relaxed);
        }
        r
    }

    /// Messages currently buffered.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// True if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The receiving half of a channel.
pub struct Receiver<T> {
    rx: Arc<Mutex<mpsc::Receiver<T>>>,
    len: Arc<AtomicUsize>,
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        Receiver {
            rx: Arc::clone(&self.rx),
            len: Arc::clone(&self.len),
        }
    }
}

impl<T> std::fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Receiver { .. }")
    }
}

impl<T> Receiver<T> {
    fn took<E>(&self, r: Result<T, E>) -> Result<T, E> {
        if r.is_ok() {
            // Saturating: a send's increment may land after the
            // matching receive's decrement.
            let _ = self
                .len
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                    Some(n.saturating_sub(1))
                });
        }
        r
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, mpsc::Receiver<T>> {
        self.rx.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks for the next message; `Err` once every sender is gone
    /// and the buffer is drained.
    pub fn recv(&self) -> Result<T, RecvError> {
        let r = self.lock().recv();
        self.took(r)
    }

    /// Takes a message if one is buffered.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let r = self.lock().try_recv();
        self.took(r)
    }

    /// Blocks for at most `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let r = self.lock().recv_timeout(timeout);
        self.took(r)
    }

    /// Messages currently buffered.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// True if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Blocking iterator ending when the channel disconnects.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        std::iter::from_fn(move || self.recv().ok())
    }

    /// Non-blocking iterator over what is buffered now.
    pub fn try_iter(&self) -> impl Iterator<Item = T> + '_ {
        std::iter::from_fn(move || self.try_recv().ok())
    }
}

fn pair<T>(tx: Tx<T>, rx: mpsc::Receiver<T>) -> (Sender<T>, Receiver<T>) {
    let len = Arc::new(AtomicUsize::new(0));
    (
        Sender {
            tx,
            len: Arc::clone(&len),
        },
        Receiver {
            rx: Arc::new(Mutex::new(rx)),
            len,
        },
    )
}

/// A channel holding at most `cap` messages.
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    let (tx, rx) = mpsc::sync_channel(cap);
    pair(Tx::Bounded(tx), rx)
}

/// A channel of unlimited capacity.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let (tx, rx) = mpsc::channel();
    pair(Tx::Unbounded(tx), rx)
}
