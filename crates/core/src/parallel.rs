//! Scoped-thread parallel map built on `std::thread::scope`.
//!
//! GA fitness evaluation is embarrassingly parallel — the paper calls GA
//! "light, fast, and highly parallelizable" (Sec. IV-B). This helper
//! splits a slice across a bounded number of worker threads and collects
//! results in order.

/// A sensible default worker count: the machine's available parallelism,
/// or 1 when it cannot be determined.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Applies `f` to every item, fanning out across up to `threads` workers.
///
/// Results preserve input order, so callers observe the exact same
/// output regardless of `threads`. With `threads <= 1` (or a single
/// item) the map runs inline — handy for deterministic debugging.
///
/// # Panics
///
/// Propagates panics from `f`.
pub fn parallel_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(&f).collect();
    }
    let workers = threads.min(items.len());
    let chunk = items.len().div_ceil(workers);
    let mut out: Vec<Option<U>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);

    // Worker panics propagate on scope exit, after the remaining workers
    // finish (std scoped threads join implicitly).
    std::thread::scope(|scope| {
        for (slot_chunk, item_chunk) in out.chunks_mut(chunk).zip(items.chunks(chunk)) {
            let f = &f;
            scope.spawn(move || {
                for (slot, item) in slot_chunk.iter_mut().zip(item_chunk) {
                    *slot = Some(f(item));
                }
            });
        }
    });

    out.into_iter().map(|v| v.expect("all slots filled")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..97).collect();
        let doubled = parallel_map(&items, 8, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_runs_inline() {
        let items = vec![1, 2, 3];
        assert_eq!(parallel_map(&items, 1, |&x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn handles_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map(&empty, 4, |&x| x).is_empty());
        assert_eq!(parallel_map(&[5], 4, |&x| x * 3), vec![15]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let items = vec![1, 2];
        assert_eq!(parallel_map(&items, 64, |&x| x), vec![1, 2]);
    }
}
