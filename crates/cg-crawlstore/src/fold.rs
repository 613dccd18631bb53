//! Ordered streaming folds over a store: [`fold_store`] is the one
//! scheduler every analysis pass runs through.
//!
//! The unit of work is a chunk: segments are cut at frame-index stride
//! boundaries ([`plan_chunks`](crate::chunk)), and units are numbered in
//! (segment, chunk) order, the fixed sequential order.
//!
//! **Scheduling.** Each worker starts on one contiguous range of units
//! and folds the whole range into one accumulator. A worker that runs
//! out steals the back half of the largest range still unclaimed and
//! starts a fresh accumulator for it, so every accumulator covers one
//! contiguous *run* of units.
//!
//! **Merge order.** A finished run is merged with the finished runs
//! directly before and after it, the earlier run always on the left.
//! Merges only ever join neighbours, so the result is the sequential
//! reduction for any associative `merge` — including `Dataset`'s
//! order-sensitive rank interleave — at any thread count and through any
//! [`ReadBackend`]. This is sound because segments hold disjoint rank
//! sets and the chunks of one segment hold disjoint, ascending rank
//! ranges: every run folds a fixed slice of the store.
//!
//! **Memory.** Two finished runs never sit side by side (they would have
//! merged), so at most `threads + 1` finished partials wait between the
//! `threads` runs still in progress. A fold holds at most
//! `2 × threads + 1` partials and `threads` decode windows, whatever the
//! store size. At one thread it holds a single accumulator and does no
//! merge at all.
//!
//! The store layer stays below analysis: this module knows nothing about
//! statistics. `cg-analysis` and `cg-detect` supply the accumulators
//! (`StreamStats`, `Dataset`, `DetectStats`).

use crate::chunk::{plan_chunks, ChunkStream, ReadBackend};
use crate::StoreError;
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::Path;
use std::sync::{Mutex, MutexGuard};

/// Folds every unit of the store at `dir` through `backend` with up to
/// `threads` workers, and returns the single reduced accumulator.
///
/// `init` makes an empty accumulator, `fold` folds one chunk's stream
/// into it, and `merge(earlier, later)` joins the accumulators of two
/// adjacent runs. The result equals folding every unit in (segment,
/// chunk) order into one accumulator whenever `merge` is associative and
/// agrees with folding the later run's units after the earlier run's —
/// true of the commutative monoids (`StreamStats`, `DetectStats`) and of
/// `Dataset`'s rank interleave alike.
///
/// A failing unit stops every worker; the error of the lowest failing
/// unit reached is returned once all have stopped, and no partial
/// outlives the call.
pub fn fold_store<T, I, F, M>(
    dir: impl AsRef<Path>,
    threads: usize,
    backend: ReadBackend,
    init: I,
    fold: F,
    merge: M,
) -> Result<T, StoreError>
where
    T: Send,
    I: Fn() -> T + Sync,
    F: Fn(&mut T, ChunkStream) -> Result<(), StoreError> + Sync,
    M: Fn(T, T) -> T + Sync,
{
    let plan = plan_chunks(dir)?;
    let count = plan.len();
    let threads = threads.max(1).min(count.max(1));
    let tele = crate::telemetry::metrics();
    let fold_unit = |acc: &mut T, i: usize| -> Result<(), StoreError> {
        tele.fold_shards.incr();
        let _span = cg_telemetry::span!("fold_shard", i);
        fold(acc, plan.open_chunk(i, backend)?)
    };
    let new_partial = || {
        tele.fold_partials.incr();
        init()
    };
    if threads == 1 {
        let mut acc = new_partial();
        for i in 0..count {
            fold_unit(&mut acc, i)?;
        }
        return Ok(acc);
    }

    let sched = Mutex::new(Sched {
        ranges: (0..threads)
            .map(|w| w * count / threads..(w + 1) * count / threads)
            .collect(),
        done: BTreeMap::new(),
        error: None,
    });
    std::thread::scope(|scope| {
        for w in 0..threads {
            let (sched, fold_unit, new_partial, merge) = (&sched, &fold_unit, &new_partial, &merge);
            scope.spawn(move || {
                let mut start = lock(sched).ranges[w].start;
                let mut acc = new_partial();
                loop {
                    // Bound first: a guard held across the match would
                    // serialize the folds.
                    let claim = lock(sched).claim(w);
                    match claim {
                        Claim::Unit(i) => {
                            if let Err(e) = fold_unit(&mut acc, i) {
                                lock(sched).fail(i, e);
                                return;
                            }
                        }
                        Claim::RunEnd(end) => {
                            deposit(sched, start..end, acc, merge);
                            let Some(stolen) = lock(sched).steal(w) else {
                                return;
                            };
                            start = stolen;
                            acc = new_partial();
                        }
                        Claim::Stop => return,
                    }
                }
            });
        }
    });

    let sched = sched.into_inner().expect("fold scheduler lock poisoned");
    if let Some((_, e)) = sched.error {
        return Err(e);
    }
    // Every run has merged into its neighbours by now; the reduce is a
    // formality over the single remaining partial.
    Ok(sched
        .done
        .into_values()
        .map(|(_, partial)| partial)
        .reduce(merge)
        .expect("a parallel fold covers at least two units"))
}

/// [`fold_store`] with one partial per chunk, returned in (segment,
/// chunk) order. Holds every partial until the fold ends, so callers
/// that reduce them should use [`fold_store`] instead.
pub fn par_fold_with<T, F>(
    dir: impl AsRef<Path>,
    threads: usize,
    backend: ReadBackend,
    fold_chunk: F,
) -> Result<Vec<T>, StoreError>
where
    T: Send,
    F: Fn(ChunkStream) -> Result<T, StoreError> + Sync,
{
    fold_store(
        dir,
        threads,
        backend,
        Vec::new,
        |parts, chunk| {
            parts.push(fold_chunk(chunk)?);
            Ok(())
        },
        |mut earlier, mut later| {
            earlier.append(&mut later);
            earlier
        },
    )
}

/// Shared scheduler state, behind one lock taken once per unit claim.
struct Sched<T> {
    /// Each worker's unclaimed remainder of its current run.
    ranges: Vec<Range<usize>>,
    /// Finished runs by first unit: (one past the last unit, partial).
    done: BTreeMap<usize, (usize, T)>,
    /// The lowest-unit error seen; once set, every worker stops.
    error: Option<(usize, StoreError)>,
}

enum Claim {
    /// Fold this unit into the current run.
    Unit(usize),
    /// The current run is complete and ends before this unit.
    RunEnd(usize),
    /// Another worker failed.
    Stop,
}

fn lock<T>(sched: &Mutex<Sched<T>>) -> MutexGuard<'_, Sched<T>> {
    sched.lock().expect("fold scheduler lock poisoned")
}

impl<T> Sched<T> {
    fn claim(&mut self, w: usize) -> Claim {
        if self.error.is_some() {
            return Claim::Stop;
        }
        let range = &mut self.ranges[w];
        match range.next() {
            Some(i) => Claim::Unit(i),
            None => Claim::RunEnd(range.end),
        }
    }

    /// Hands worker `w` the back half (at least one unit) of the largest
    /// unclaimed range and returns its first unit; `None` when no work
    /// is left.
    fn steal(&mut self, w: usize) -> Option<usize> {
        if self.error.is_some() {
            return None;
        }
        let (victim, len) = self
            .ranges
            .iter()
            .map(ExactSizeIterator::len)
            .enumerate()
            .max_by_key(|&(_, len)| len)
            .filter(|&(_, len)| len > 0)?;
        let end = self.ranges[victim].end;
        let mid = end - len.div_ceil(2);
        self.ranges[victim].end = mid;
        self.ranges[w] = mid..end;
        Some(mid)
    }

    fn fail(&mut self, unit: usize, e: StoreError) {
        if self.error.as_ref().is_none_or(|&(first, _)| unit < first) {
            self.error = Some((unit, e));
        }
    }

    /// Removes the finished run that ends exactly at `start`.
    fn take_ending_at(&mut self, start: usize) -> Option<(usize, T)> {
        let (&first, &(end, _)) = self.done.range(..start).next_back()?;
        if end != start {
            return None;
        }
        self.done
            .remove(&first)
            .map(|(_, partial)| (first, partial))
    }
}

/// Files a finished run, merging it with finished neighbours first. The
/// neighbour check and the insert happen under one lock hold, so two
/// adjacent runs can never both be filed unmerged; merges themselves run
/// outside the lock. An empty run (its one unit stolen before it was
/// claimed) holds nothing and is dropped.
fn deposit<T>(
    sched: &Mutex<Sched<T>>,
    mut run: Range<usize>,
    mut acc: T,
    merge: &impl Fn(T, T) -> T,
) {
    if run.is_empty() {
        return;
    }
    loop {
        let (before, after) = {
            let mut s = lock(sched);
            if s.error.is_some() {
                return;
            }
            let before = s.take_ending_at(run.start);
            let after = s.done.remove(&run.end);
            if before.is_none() && after.is_none() {
                s.done.insert(run.start, (run.end, acc));
                return;
            }
            (before, after)
        };
        if let Some((start, partial)) = before {
            acc = merge(partial, acc);
            run.start = start;
        }
        if let Some((end, partial)) = after {
            acc = merge(acc, partial);
            run.end = end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(ranges: Vec<Range<usize>>) -> Sched<Vec<usize>> {
        Sched {
            ranges,
            done: BTreeMap::new(),
            error: None,
        }
    }

    #[test]
    fn steals_take_the_back_half_of_the_largest_range() {
        let mut s = sched(vec![0..0, 2..10, 10..13]);
        assert_eq!(s.steal(0), Some(6));
        assert_eq!(s.ranges, vec![6..10, 2..6, 10..13]);
        // A single remaining unit is stolen whole.
        let mut s = sched(vec![3..4, 4..4]);
        assert_eq!(s.steal(1), Some(3));
        assert_eq!(s.ranges, vec![3..3, 3..4]);
        assert_eq!(s.steal(0), Some(3));
        assert_eq!(s.ranges, vec![3..4, 3..3]);
        let mut s = sched(vec![4..4, 9..9]);
        assert_eq!(s.steal(0), None);
    }

    #[test]
    fn deposits_merge_adjacent_runs_in_order() {
        let s = Mutex::new(sched(Vec::new()));
        let concat = |mut a: Vec<usize>, mut b: Vec<usize>| {
            a.append(&mut b);
            a
        };
        deposit(&s, 4..6, vec![4, 5], &concat);
        deposit(&s, 0..2, vec![0, 1], &concat);
        assert_eq!(lock(&s).done.len(), 2, "runs with a gap stay apart");
        deposit(&s, 2..4, vec![2, 3], &concat);
        deposit(&s, 6..6, Vec::new(), &concat);
        let done = s.into_inner().unwrap().done;
        assert_eq!(done.len(), 1);
        assert_eq!(done[&0], (6, vec![0, 1, 2, 3, 4, 5]));
    }

    #[test]
    fn the_lowest_failing_unit_wins() {
        let corrupt = |detail: &str| StoreError::Corrupt {
            file: String::new(),
            detail: detail.into(),
        };
        let mut s = sched(vec![0..4, 4..8]);
        s.fail(7, corrupt("late"));
        s.fail(2, corrupt("early"));
        s.fail(5, corrupt("middle"));
        assert!(
            matches!(s.error, Some((2, StoreError::Corrupt { ref detail, .. })) if detail == "early")
        );
        assert!(matches!(s.claim(0), Claim::Stop));
        assert_eq!(s.steal(0), None);
    }
}
