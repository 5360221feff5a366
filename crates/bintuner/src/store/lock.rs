//! Advisory cross-process file locks for store mutation.
//!
//! One [`StoreLock`] guards one file: the v4 store takes one per shard
//! log (so compacting shard 3 never blocks a writer appending to shard
//! 7), the artifact log takes its own, and creating the store directory
//! or rewriting its manifest takes a single whole-store lock on the
//! store path itself.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Advisory cross-process lock on a store file: an exclusive kernel
/// file lock (`flock` on Unix) on a `<path>.lock` sibling. The kernel
/// releases it when the holder drops the lock or dies, so a crashed run
/// never wedges later saves and no liveness probe is needed; the lock
/// file's content is never read.
///
/// The lock file is never unlinked, so lock files persist beside the
/// files they guard. Unlinking would reopen a race: a later acquirer
/// would create and lock a fresh inode at the same path while an
/// earlier holder still holds the old, unlinked one, and both would
/// believe they hold the lock.
///
/// Advisory means cooperative: only the store's save/compaction paths
/// honor it, which is enough because saving is the store's only file
/// mutation. Builds that used pid-file locks do not honor kernel locks
/// (nor this build theirs), so an older build and this one writing one
/// store at the same time do not exclude each other.
#[derive(Debug)]
pub struct StoreLock {
    _file: fs::File,
}

impl StoreLock {
    /// Path of the lock file guarding `store_path`.
    pub fn lock_path(store_path: &Path) -> PathBuf {
        let mut p = store_path.as_os_str().to_owned();
        p.push(".lock");
        PathBuf::from(p)
    }

    /// Try to take the lock without blocking. `Ok(None)` means another
    /// holder (another process, or another open of the same lock in this
    /// one) has it: the caller should degrade, not block.
    ///
    /// # Errors
    ///
    /// I/O failures opening or locking the lock file (permissions, a
    /// missing parent directory).
    pub fn acquire(store_path: &Path) -> io::Result<Option<StoreLock>> {
        let file = fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(StoreLock::lock_path(store_path))?;
        match file.try_lock() {
            Ok(()) => Ok(Some(StoreLock { _file: file })),
            Err(fs::TryLockError::WouldBlock) => Ok(None),
            Err(fs::TryLockError::Error(e)) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!(
            "bintuner_lock_{}_{}.btfs",
            std::process::id(),
            name
        ));
        let _ = fs::remove_file(StoreLock::lock_path(&p));
        p
    }

    #[test]
    fn stale_reclaim_admits_exactly_one_winner_under_contention() {
        // A stale lock file (a dead pid from an older run) never blocks,
        // and any number of threads hammering acquire on one path never
        // observe two simultaneous holders.
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let path = scratch("contention");
        let lock_file = StoreLock::lock_path(&path);
        fs::write(&lock_file, (u32::MAX - 1).to_string()).unwrap();
        let holders = Arc::new(AtomicUsize::new(0));
        let acquired = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let path = path.clone();
                let holders = Arc::clone(&holders);
                let acquired = Arc::clone(&acquired);
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        if let Some(lock) = StoreLock::acquire(&path).unwrap() {
                            let now = holders.fetch_add(1, Ordering::SeqCst);
                            assert_eq!(now, 0, "two live holders of one store lock");
                            acquired.fetch_add(1, Ordering::SeqCst);
                            std::hint::spin_loop();
                            holders.fetch_sub(1, Ordering::SeqCst);
                            drop(lock);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(
            acquired.load(Ordering::SeqCst) > 0,
            "contention test never acquired — vacuous"
        );
        let _ = fs::remove_file(&lock_file);
    }

    #[test]
    fn missing_parent_directory_is_an_error() {
        let path = scratch("no_parent").join("store");
        assert!(StoreLock::acquire(&path).is_err());
    }
}
