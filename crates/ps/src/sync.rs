//! Poison-free reader–writer lock over `std::sync::RwLock`.
//!
//! Replaces `parking_lot::RwLock` (hermetic builds carry no registry
//! dependencies) while keeping its ergonomics: `read()`/`write()`
//! return guards directly. A poisoned lock is recovered rather than
//! propagated — the store's shard state is a plain data structure whose
//! invariants hold between operations, so observing it after a
//! panicking writer is safe.

use std::sync::{PoisonError, RwLockReadGuard, RwLockWriteGuard, TryLockError};

/// A reader–writer lock whose guards ignore poisoning.
#[derive(Debug, Default)]
pub struct RwLock<T>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Creates the lock holding `value`.
    pub const fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }

    /// Acquires shared read access, blocking until available.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquires exclusive write access, blocking until available.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Shared read access if it is free now (no writer holds or awaits
    /// the lock); `None` instead of blocking.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        match self.0.try_read() {
            Ok(guard) => Some(guard),
            Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Exclusive write access if it is free now; `None` instead of
    /// blocking.
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match self.0.try_write() {
            Ok(guard) => Some(guard),
            Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip() {
        let l = RwLock::new(5u32);
        assert_eq!(*l.read(), 5);
        *l.write() += 1;
        assert_eq!(*l.read(), 6);
        assert_eq!(l.into_inner(), 6);
    }

    #[test]
    fn try_locks_give_up_instead_of_blocking() {
        let l = RwLock::new(0u32);
        {
            let _r = l.read();
            assert!(l.try_read().is_some(), "readers share");
            assert!(l.try_write().is_none());
        }
        let _w = l.write();
        assert!(l.try_read().is_none() && l.try_write().is_none());
    }

    #[test]
    fn survives_poisoning() {
        use std::sync::Arc;
        let l = Arc::new(RwLock::new(1u32));
        let l2 = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _g = l2.write();
            panic!("poison the lock");
        })
        .join();
        assert_eq!(*l.read(), 1);
    }
}
