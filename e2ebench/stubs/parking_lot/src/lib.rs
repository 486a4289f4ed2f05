//! Offline stand-in for `parking_lot`: `Mutex` / `RwLock` with the
//! poison-free, guard-returning API, over the std primitives.

use std::sync::{self, PoisonError};

pub use std::sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard};

/// A mutex whose `lock` returns the guard directly.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates a mutex.
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    /// Consumes the mutex, returning the value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Blocks until the lock is held.
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes the lock if it is free.
    #[inline]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(g),
            Err(sync::TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A reader-writer lock whose `read`/`write` return guards directly.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Creates a lock.
    pub const fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value))
    }

    /// Consumes the lock, returning the value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Shared access.
    #[inline]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Exclusive access.
    #[inline]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Mutable access without locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}
