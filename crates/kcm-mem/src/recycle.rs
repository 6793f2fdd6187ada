//! Per-thread pools of retired host memory.
//!
//! Both execution tiers build the memory a query runs on once per
//! thread, not once per query: a dropped backend hands its buffers to a
//! pool owned by the thread that dropped it, and the next backend built
//! on that thread takes them back. The cycle tier pools whole simulated
//! boards ([`crate::MemorySystem`]); the native tier pools the zone
//! stores of `kcm-native`'s `FlatMem`. Both share the take/retire logic
//! here, including its depth cap.
//!
//! Retiring never panics. A backend can be dropped while its thread is
//! exiting, for example by another thread-local's destructor that runs
//! after the pool's own slot is gone; the item is then simply freed. A
//! panic there would abort the process.

use std::cell::RefCell;
use std::thread::LocalKey;

/// A thread's pool of retired items, declared with `thread_local!`.
pub type Pool<T> = LocalKey<RefCell<Vec<T>>>;

/// How many retired items a thread keeps per pool. A query thread holds
/// one backend at a time, a thread driving several sessions a few; items
/// beyond this are freed.
pub const POOL_DEPTH: usize = 4;

/// Takes the most recently retired item from this thread's `pool`.
/// `None` when the pool is empty or already destroyed.
pub fn take<T: 'static>(pool: &'static Pool<T>) -> Option<T> {
    pool.try_with(|p| p.try_borrow_mut().ok()?.pop())
        .ok()
        .flatten()
}

/// Returns `item` to this thread's `pool`. It is freed instead when the
/// pool already holds [`POOL_DEPTH`] items or is gone because the thread
/// is exiting.
pub fn retire<T: 'static>(pool: &'static Pool<T>, item: T) {
    let _ = pool.try_with(|p| {
        if let Ok(mut p) = p.try_borrow_mut() {
            if p.len() < POOL_DEPTH {
                p.push(item);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    thread_local! {
        static NUMBERS: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    }

    #[test]
    fn takes_back_what_was_retired_up_to_the_depth() {
        assert_eq!(take(&NUMBERS), None);
        for n in 0..10 {
            retire(&NUMBERS, n);
        }
        let kept: Vec<u32> = std::iter::from_fn(|| take(&NUMBERS)).collect();
        assert_eq!(kept, [3, 2, 1, 0]);
    }
}
