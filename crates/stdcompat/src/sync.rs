//! Poison-transparent locks.
//!
//! The workspace's lock users (the monitoring agent, telemetry
//! registries) treat a panic while holding a lock as recoverable — the
//! guarded state is plain data. These wrappers over the std locks
//! therefore unwrap poison via [`std::sync::PoisonError::into_inner`]
//! instead of making every caller handle it.

/// A mutual-exclusion lock.
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

/// RAII guard for [`Mutex`].
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// Creates a lock around `value`.
    pub fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Acquires the lock, blocking the current thread. Poison from
    /// a panicked holder is ignored.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// A reader-writer lock.
#[derive(Debug, Default)]
pub struct RwLock<T>(std::sync::RwLock<T>);

/// Shared-read guard for [`RwLock`].
pub type RwLockReadGuard<'a, T> = std::sync::RwLockReadGuard<'a, T>;
/// Exclusive-write guard for [`RwLock`].
pub type RwLockWriteGuard<'a, T> = std::sync::RwLockWriteGuard<'a, T>;

impl<T> RwLock<T> {
    /// Creates a lock around `value`.
    pub fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }

    /// Acquires shared read access. Poison is ignored.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Acquires exclusive write access. Poison is ignored.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_guards_exclusive_access() {
        let m = std::sync::Arc::new(Mutex::new(0u32));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let m = m.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        *m.lock() += 1;
                    }
                });
            }
        });
        assert_eq!(*m.lock(), 4000);
    }

    #[test]
    fn rwlock_allows_concurrent_reads() {
        let l = RwLock::new(7u32);
        let a = l.read();
        let b = l.read();
        assert_eq!((*a, *b), (7, 7));
        drop((a, b));
        *l.write() = 8;
        assert_eq!(l.into_inner(), 8);
    }

    #[test]
    fn poisoned_mutex_stays_usable() {
        let m = std::sync::Arc::new(Mutex::new(1u32));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison the lock");
        })
        .join();
        assert_eq!(*m.lock(), 1);
    }
}
