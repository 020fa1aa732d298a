//! Cardinality and size estimation over join subtrees.
//!
//! The estimator implements the classic independence model: the cardinality
//! of joining two sub-results is `sel × |L| × |R|` where `sel` is the
//! product of the selectivities of all join edges crossing the split
//! (edges within a side were already applied when that side was formed).
//! When no edge crosses, the join is a Cartesian product and `sel = 1` —
//! which is how the optimizer "knows" co-located but non-joinable relations
//! must not be joined (§4.3.1: a Cartesian product of two benchmark
//! relations would be millions of pages).
//!
//! With the paper's *moderate* selectivity (1e-4 between 10k-tuple
//! relations) every connected sub-chain has exactly 10,000 tuples, so "the
//! result of a join … is the size and cardinality of one base relation"
//! (§3.3) holds by construction.

use crate::config::SystemConfig;
use crate::query::{QuerySpec, RelSet};
use crate::schema::pages_for;

/// Estimates cardinalities, widths and page counts of query sub-results.
#[derive(Debug, Clone)]
pub struct Estimator<'q> {
    query: &'q QuerySpec,
    page_size: u32,
    /// The query's uniform tuple width, read once: the query cannot
    /// change while it is borrowed here.
    tuple_bytes: Option<u32>,
}

impl<'q> Estimator<'q> {
    /// Build an estimator for `query` under `config`.
    pub fn new(query: &'q QuerySpec, config: &SystemConfig) -> Estimator<'q> {
        Estimator {
            query,
            page_size: config.page_size,
            tuple_bytes: query.uniform_tuple_bytes(),
        }
    }

    /// The query this estimator reads statistics from.
    pub fn query(&self) -> &'q QuerySpec {
        self.query
    }

    /// Estimated tuple count of the sub-result covering exactly `rels`,
    /// with all selections and all internal join edges applied.
    pub fn tuples(&self, rels: RelSet) -> f64 {
        let mut card = 1.0;
        for rel in rels.iter() {
            let r = &self.query.relations[rel.index()];
            card *= r.tuples as f64 * self.query.selection[rel.index()];
        }
        for e in &self.query.edges {
            if rels.contains(e.a) && rels.contains(e.b) {
                card *= e.selectivity;
            }
        }
        card
    }

    /// Tuple width of any sub-result: intermediate results are projected to
    /// the (uniform) base tuple width (§3.3).
    // Modeling assumption, not an error path: every workload generator
    // produces uniform-width relations (the paper's benchmark schema), and
    // a mixed-width query has no defined width model here to fall back to.
    #[allow(clippy::expect_used)]
    pub fn tuple_bytes(&self, _rels: RelSet) -> u32 {
        self.tuple_bytes
            .expect("benchmark queries have uniform tuple width")
    }

    /// Estimated page count of the sub-result covering `rels`.
    pub fn pages(&self, rels: RelSet) -> f64 {
        self.pages_of(self.tuples(rels))
    }

    /// Pages needed to hold `tuples` intermediate-result tuples, for a
    /// caller that already has the tuple estimate.
    pub fn pages_of(&self, tuples: f64) -> f64 {
        if tuples <= 0.0 {
            return 0.0;
        }
        let per_page = (self.page_size / self.tuple_bytes(RelSet::EMPTY)) as f64;
        (tuples / per_page).ceil()
    }

    /// Integer page count (rounded estimate) — what the engine materializes.
    pub fn pages_int(&self, rels: RelSet) -> u64 {
        pages_for(
            self.tuples_int(rels),
            self.tuple_bytes(rels),
            self.page_size,
        )
    }

    /// Integer tuple count (rounded estimate).
    pub fn tuples_int(&self, rels: RelSet) -> u64 {
        crate::num::sat_u64(self.tuples(rels).round())
    }

    /// Selectivity applied when sub-results `left` and `right` are joined:
    /// the product over crossing edges (1.0 for a Cartesian product).
    pub fn join_selectivity(&self, left: RelSet, right: RelSet) -> f64 {
        debug_assert!(left.is_disjoint(right));
        self.query.cross_selectivity(left, right)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::RelId;
    use crate::query::JoinEdge;
    use crate::schema::Relation;

    fn chain(n: u32, sel: f64) -> QuerySpec {
        let rels = (0..n)
            .map(|i| Relation::benchmark(RelId(i), format!("R{i}")))
            .collect();
        let edges = (0..n - 1)
            .map(|i| JoinEdge {
                a: RelId(i),
                b: RelId(i + 1),
                selectivity: sel,
            })
            .collect();
        QuerySpec::new(rels, edges)
    }

    fn set(ids: &[u32]) -> RelSet {
        ids.iter()
            .fold(RelSet::EMPTY, |s, &i| s.union(RelSet::single(RelId(i))))
    }

    #[test]
    fn moderate_chain_is_size_preserving() {
        // §3.3: joining two equal-sized relations yields one relation's
        // size, for every prefix of the chain.
        let q = chain(10, 1e-4);
        let cfg = SystemConfig::default();
        let est = Estimator::new(&q, &cfg);
        for k in 1..=10u32 {
            let rels = set(&(0..k).collect::<Vec<_>>());
            assert!(
                (est.tuples(rels) - 10_000.0).abs() < 1e-6,
                "chain of {k}: {}",
                est.tuples(rels)
            );
            assert_eq!(est.pages_int(rels), 250);
        }
    }

    #[test]
    fn hisel_chain_shrinks() {
        // HiSel (§5.2): 20% of each input's tuples participate, i.e. a
        // 2-way result of 2,000 tuples -> selectivity 2e-5.
        let q = chain(3, 2e-5);
        let cfg = SystemConfig::default();
        let est = Estimator::new(&q, &cfg);
        assert!((est.tuples(set(&[0, 1])) - 2_000.0).abs() < 1e-9);
        assert!((est.tuples(set(&[0, 1, 2])) - 400.0).abs() < 1e-9);
        assert_eq!(est.pages_int(set(&[0, 1])), 50);
    }

    #[test]
    fn cartesian_product_explodes() {
        let q = chain(3, 1e-4);
        let cfg = SystemConfig::default();
        let est = Estimator::new(&q, &cfg);
        // R0 x R2: no edge -> 10^8 tuples, ~2.44M pages.
        let cross = set(&[0, 2]);
        assert!((est.tuples(cross) - 1e8).abs() < 1.0);
        assert!(est.pages(cross) > 2e6);
        assert_eq!(est.join_selectivity(set(&[0]), set(&[2])), 1.0);
    }

    #[test]
    fn selection_scales_cardinality() {
        let q = chain(2, 1e-4).with_selection(RelId(0), 0.1);
        let cfg = SystemConfig::default();
        let est = Estimator::new(&q, &cfg);
        assert!((est.tuples(set(&[0])) - 1_000.0).abs() < 1e-9);
        assert!((est.tuples(set(&[0, 1])) - 1_000.0).abs() < 1e-9);
    }

    #[test]
    fn join_selectivity_crossing_edges_only() {
        let q = chain(4, 1e-4);
        let cfg = SystemConfig::default();
        let est = Estimator::new(&q, &cfg);
        // Split {0,1} | {2,3}: only edge 1-2 crosses.
        assert!((est.join_selectivity(set(&[0, 1]), set(&[2, 3])) - 1e-4).abs() < 1e-16);
    }
}
