//! Cross-shard top-k merging under the canonical tie-break.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use kosr_core::KosrOutcome;
use kosr_graph::{VertexId, Weight};

/// Merges per-shard canonical top-k streams into the global canonical
/// top-k with a **bounded heap**: the heap never holds more than one
/// cursor per stream, so merging `S` shards costs `O((S + k) log S)`
/// regardless of stream lengths.
///
/// Correctness rests on two invariants the shard layer maintains:
///
/// * each stream is canonically ordered (nondecreasing cost, lexicographic
///   tie-break — `Witness::canonical_cmp`), and
/// * streams enumerate **disjoint** route subspaces (first-stop ownership),
///   so no witness appears twice.
///
/// Under those, the first `k` pops are exactly the canonical top-k of the
/// union — bit-identical to an unsharded canonical run.
///
/// `bounds[i]` is an **admissible cost lower bound** for `streams[i]`: it
/// must not exceed the cost of any witness in the stream (the router
/// derives it from the shard's category-chain table; `0` is always sound).
/// Streams are admitted to the cursor heap lazily — stream `i` only
/// materializes a cursor once `bounds[i]` is ≤ the cost at the front of
/// the heap (`≤`, not `<`: an equal-cost witness can still win the
/// canonical lexicographic tie-break). A stream whose bound stays above
/// the k-th answer never has its head cloned at all, and once `k`
/// witnesses are out the merge stops without touching the rest. With
/// admissible bounds the output is the same as with all-zero bounds: a
/// stream held back by its bound cannot, by admissibility, contain the
/// next canonical pop.
///
/// Per-query instrumentation is aggregated over every stream: additive
/// counters sum across shards, `heap_peak` takes the max, per-level counts
/// add element-wise, and `time.total` takes the max (shards run in
/// parallel; the merged total reports the critical path).
pub fn merge_topk_bounded(streams: Vec<KosrOutcome>, k: usize, bounds: &[Weight]) -> KosrOutcome {
    assert_eq!(
        streams.len(),
        bounds.len(),
        "one lower bound per stream required"
    );
    // Cursor heap keyed by the canonical order; the stream index breaks
    // (impossible, but cheap) exact key collisions deterministically.
    type Key = (Weight, Vec<VertexId>, usize, usize);
    let mut heap: BinaryHeap<Reverse<Key>> = BinaryHeap::with_capacity(streams.len());
    // Admission order: tightest bound first.
    let mut order: Vec<usize> = (0..streams.len()).collect();
    order.sort_by_key(|&i| bounds[i]);
    let mut next = 0;

    let mut witnesses = Vec::with_capacity(k.min(64));
    while witnesses.len() < k {
        while next < order.len()
            && heap
                .peek()
                .is_none_or(|Reverse((front, ..))| bounds[order[next]] <= *front)
        {
            let si = order[next];
            next += 1;
            if let Some(w) = streams[si].witnesses.first() {
                heap.push(Reverse((w.cost, w.vertices.clone(), si, 0)));
            }
        }
        let Some(Reverse((_, _, si, pos))) = heap.pop() else {
            break;
        };
        witnesses.push(streams[si].witnesses[pos].clone());
        if let Some(w) = streams[si].witnesses.get(pos + 1) {
            heap.push(Reverse((w.cost, w.vertices.clone(), si, pos + 1)));
        }
    }

    let mut stats = kosr_core::QueryStats::default();
    for s in &streams {
        stats.examined_routes += s.stats.examined_routes;
        stats.nn_queries += s.stats.nn_queries;
        stats.dominated_routes += s.stats.dominated_routes;
        stats.reconsidered_routes += s.stats.reconsidered_routes;
        stats.bound_pruned += s.stats.bound_pruned;
        stats.heap_peak = stats.heap_peak.max(s.stats.heap_peak);
        stats.truncated |= s.stats.truncated;
        if stats.examined_per_level.len() < s.stats.examined_per_level.len() {
            stats
                .examined_per_level
                .resize(s.stats.examined_per_level.len(), 0);
        }
        for (acc, &x) in stats
            .examined_per_level
            .iter_mut()
            .zip(&s.stats.examined_per_level)
        {
            *acc += x;
        }
        stats.time.total = stats.time.total.max(s.stats.time.total);
        stats.time.nn += s.stats.time.nn;
        stats.time.queue += s.stats.time.queue;
        stats.time.estimation += s.stats.time.estimation;
    }
    stats.time.finalize();
    KosrOutcome { witnesses, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kosr_core::Witness;

    fn w(cost: Weight, tail: u32) -> Witness {
        Witness {
            vertices: vec![VertexId(0), VertexId(tail), VertexId(9)],
            cost,
        }
    }

    fn stream(ws: Vec<Witness>) -> KosrOutcome {
        KosrOutcome {
            witnesses: ws,
            stats: Default::default(),
        }
    }

    #[test]
    fn merges_by_cost_then_lexicographic() {
        let a = stream(vec![w(5, 3), w(7, 1)]);
        let b = stream(vec![w(5, 2), w(6, 8)]);
        let out = merge_topk_bounded(vec![a, b], 3, &[0, 0]);
        assert_eq!(out.costs(), vec![5, 5, 6]);
        // Cost-5 tie: vertex tuple [0,2,9] sorts before [0,3,9].
        assert_eq!(out.witnesses[0].vertices[1], VertexId(2));
        assert_eq!(out.witnesses[1].vertices[1], VertexId(3));
    }

    #[test]
    fn equals_sorted_union_on_many_streams() {
        let streams: Vec<KosrOutcome> = (0..5)
            .map(|s| {
                stream(
                    (0..4)
                        .map(|i| w((i * 7 + s * 3) % 13, (s * 10 + i) as u32))
                        .collect(),
                )
            })
            .collect();
        // Canonicalise each stream first (the shard invariant).
        let streams: Vec<KosrOutcome> = streams
            .into_iter()
            .map(|mut s| {
                s.witnesses.sort_by(|x, y| x.canonical_cmp(y));
                s
            })
            .collect();
        let mut union: Vec<Witness> = streams
            .iter()
            .flat_map(|s| s.witnesses.iter().cloned())
            .collect();
        union.sort_by(|x, y| x.canonical_cmp(y));
        for k in [1, 3, 8, 20, 50] {
            let merged = merge_topk_bounded(streams.clone(), k, &[0; 5]);
            assert_eq!(merged.witnesses[..], union[..k.min(union.len())]);
        }
    }

    #[test]
    fn admissible_bounds_match_zero_bounds() {
        let streams: Vec<KosrOutcome> = (0..5)
            .map(|s| {
                let mut ws: Vec<Witness> = (0..4)
                    .map(|i| w((i * 7 + s * 3) % 13 + s, (s * 10 + i) as u32))
                    .collect();
                ws.sort_by(|x, y| x.canonical_cmp(y));
                stream(ws)
            })
            .collect();
        // The tightest admissible bound: each stream's own head cost.
        let bounds: Vec<Weight> = streams
            .iter()
            .map(|s| s.witnesses.first().map_or(0, |w| w.cost))
            .collect();
        for k in [1, 2, 5, 20] {
            let base = merge_topk_bounded(streams.clone(), k, &[0; 5]);
            let opt = merge_topk_bounded(streams.clone(), k, &bounds);
            assert_eq!(base.witnesses, opt.witnesses, "k={k}");
        }
    }

    #[test]
    fn streams_held_above_the_kth_cost_are_never_admitted() {
        let a = stream(vec![w(1, 1), w(2, 2)]);
        let b = stream(vec![w(3, 3)]);
        // A deliberately mis-ordered stream: admitting it would corrupt
        // the merge (its head costs more than its tail), so a correct
        // output proves its bound kept it out entirely.
        let mut poisoned = stream(vec![w(90, 9), w(50, 8)]);
        poisoned.stats.examined_routes = 11;
        let out = merge_topk_bounded(vec![a, b, poisoned], 3, &[0, 0, 40]);
        assert_eq!(out.costs(), vec![1, 2, 3]);
        // Never-admitted streams still aggregate into the merged stats.
        assert_eq!(out.stats.examined_routes, 11);
    }

    #[test]
    fn bounds_admit_on_ties_so_lexicographic_order_survives() {
        let a = stream(vec![w(5, 7)]);
        let b = stream(vec![w(5, 2)]);
        // b's bound equals a's head cost: it must still be admitted before
        // the pop, or the canonical tie-break would be violated.
        let out = merge_topk_bounded(vec![a, b], 2, &[0, 5]);
        assert_eq!(out.witnesses[0].vertices[1], VertexId(2));
        assert_eq!(out.witnesses[1].vertices[1], VertexId(7));
    }

    #[test]
    fn aggregates_stats_and_handles_empty_streams() {
        let mut a = stream(vec![w(1, 1)]);
        a.stats.examined_routes = 10;
        a.stats.heap_peak = 7;
        a.stats.bound_pruned = 3;
        let mut b = stream(vec![]);
        b.stats.examined_routes = 4;
        b.stats.heap_peak = 9;
        b.stats.truncated = true;
        b.stats.bound_pruned = 2;
        let out = merge_topk_bounded(vec![a, b], 5, &[0, 0]);
        assert_eq!(out.costs(), vec![1]);
        assert_eq!(out.stats.examined_routes, 14);
        assert_eq!(out.stats.bound_pruned, 5);
        assert_eq!(out.stats.heap_peak, 9);
        assert!(out.stats.truncated);
        assert!(merge_topk_bounded(vec![], 3, &[]).witnesses.is_empty());
    }
}
