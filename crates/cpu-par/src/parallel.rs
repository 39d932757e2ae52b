//! Parallel loop helpers on top of [`Pool`](crate::Pool).

use crate::pool::global_pool;

/// Executes `body(i)` for every `i in 0..n` on the global pool.
///
/// ```
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let total = AtomicU64::new(0);
/// cpu_par::parallel_for(1000, |i| {
///     total.fetch_add(i as u64, Ordering::Relaxed);
/// });
/// assert_eq!(total.into_inner(), 999 * 1000 / 2);
/// ```
///
/// Iterations are grouped into chunks internally so per-task dispatch overhead
/// stays negligible even for very large `n`.
pub fn parallel_for<F>(n: usize, body: F)
where
    F: Fn(usize) + Sync,
{
    parallel_for_chunked(n, default_chunk(n), |start, end| {
        for i in start..end {
            body(i);
        }
    });
}

/// Executes `body(start, end)` over disjoint ranges covering `0..n`, each of
/// length at most `chunk`, dynamically scheduled over the global pool.
pub fn parallel_for_chunked<F>(n: usize, chunk: usize, body: F)
where
    F: Fn(usize, usize) + Sync,
{
    if n == 0 {
        return;
    }
    let chunk = chunk.max(1);
    let num_chunks = n.div_ceil(chunk);
    if num_chunks == 1 {
        body(0, n);
        return;
    }
    global_pool().run(num_chunks, &|task, _worker| {
        let start = task * chunk;
        let end = (start + chunk).min(n);
        body(start, end);
    });
}

/// Splits `data` into chunks of `chunk_size` elements and runs
/// `body(chunk_index, chunk)` on each in parallel.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_size: usize, body: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let chunk_size = chunk_size.max(1);
    let n = data.len();
    if n == 0 {
        return;
    }
    let base = SendPtr(data.as_mut_ptr());
    let base = &base; // capture the Sync wrapper, not the raw pointer field
    let num_chunks = n.div_ceil(chunk_size);
    global_pool().run(num_chunks, &|task, _worker| {
        let start = task * chunk_size;
        let len = chunk_size.min(n - start);
        // SAFETY: chunks `task * chunk_size .. +len` are pairwise disjoint and
        // in-bounds, and `data` is exclusively borrowed for the whole region.
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.0.add(start), len) };
        body(task, chunk);
    });
}

/// Chunk size heuristic: at least 4 chunks per worker for load balance, but
/// never chunks smaller than 64 iterations.
fn default_chunk(n: usize) -> usize {
    let workers = global_pool().num_threads();
    let target_chunks = workers * 4;
    (n.div_ceil(target_chunks.max(1))).max(64).min(n.max(1))
}

struct SendPtr<T>(*mut T);
// SAFETY: the pointer targets a slice that outlives the scoped workers, and
// each worker dereferences a disjoint chunk of it.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: see `Send` above — chunk disjointness makes shared access sound.
unsafe impl<T: Send> Sync for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn parallel_for_covers_range() {
        let hits: Vec<AtomicUsize> = (0..5000).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(5000, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_empty() {
        parallel_for(0, |_| panic!("must not run"));
    }

    #[test]
    fn chunked_ranges_tile_exactly() {
        let covered = Mutex::new(vec![false; 1037]);
        parallel_for_chunked(1037, 100, |start, end| {
            assert!(end - start <= 100);
            let mut guard = covered.lock();
            for i in start..end {
                assert!(!guard[i], "range overlap at {i}");
                guard[i] = true;
            }
        });
        assert!(covered.into_inner().into_iter().all(|b| b));
    }

    #[test]
    fn par_chunks_mut_writes_disjoint_chunks() {
        let mut data = vec![0usize; 999];
        par_chunks_mut(&mut data, 128, |chunk_index, chunk| {
            for value in chunk.iter_mut() {
                *value = chunk_index + 1;
            }
        });
        for (i, value) in data.iter().enumerate() {
            assert_eq!(*value, i / 128 + 1);
        }
    }

    #[test]
    fn par_chunks_mut_empty_slice() {
        let mut data: Vec<u8> = Vec::new();
        par_chunks_mut(&mut data, 16, |_, _| panic!("must not run"));
    }
}
