//! Policy-restricted random plan generation.
//!
//! "The optimizer first chooses a random plan from the desired search
//! space (i.e., data, query, or hybrid-shipping)…" (§3.1.1)
//!
//! A random join tree is grown by repeatedly merging two random subtrees
//! of a forest, preferring joinable pairs (pairs connected by a join-graph
//! edge) so the starting point is rarely a Cartesian product — the cost
//! model prices cross products truthfully, so the walk would escape them
//! anyway, but starting connected converges faster. Annotations are drawn
//! uniformly from the policy's Table 1 row, then repaired until the plan
//! is well-formed (§2.2.3: "it is very easy to 'sort out' ill-formed
//! plans during query optimization").

use csqp_catalog::{QuerySpec, RelSet};
use csqp_core::{Annotation, JoinTree, Plan, Policy};
use csqp_simkernel::rng::SimRng;

use crate::moves::{apply_move_verified, Move, MoveKind};

/// Generate a random plan in `policy`'s search space.
pub fn random_plan(query: &QuerySpec, policy: Policy, rng: &mut SimRng) -> Plan {
    let tree = random_join_tree(query, rng);
    // Start from a uniform valid skeleton, then randomize annotations.
    let (jann, sann) = match policy {
        Policy::DataShipping => (Annotation::Consumer, Annotation::Client),
        _ => (Annotation::InnerRel, Annotation::PrimaryCopy),
    };
    let mut plan = tree.into_plan(query, jann, sann);
    randomize_annotations(&mut plan, policy, rng);
    #[cfg(debug_assertions)]
    {
        let report = csqp_verify::check_logical(&plan, query, policy);
        debug_assert!(
            report.is_clean(),
            "random_plan produced an invalid plan:\n{report}"
        );
    }
    plan
}

/// Redraw every annotation uniformly from the policy's allowed set, then
/// repair any two-node cycles.
pub fn randomize_annotations(plan: &mut Plan, policy: Policy, rng: &mut SimRng) {
    for id in plan.postorder() {
        let op = plan.node(id).op;
        let allowed = policy.allowed(op);
        plan.node_mut(id).ann = *rng.pick(allowed);
    }
    repair_wellformedness(plan, policy, rng);
}

/// Re-randomize the upward-pointing half of each two-node cycle until the
/// plan is well-formed. Terminates: each repair removes one cycle and can
/// only create a new one at the repaired node's own children, and the
/// repaired annotation is drawn from non-`consumer` options when any
/// exist (they always do for joins and selects under hybrid shipping; the
/// pure policies never produce cycles in the first place).
pub fn repair_wellformedness(plan: &mut Plan, policy: Policy, rng: &mut SimRng) {
    for _ in 0..plan.arena_len() * 4 {
        match csqp_core::wellformed::find_cycle(plan) {
            None => return,
            Some((_, child)) => {
                let op = plan.node(child).op;
                let non_up: Vec<Annotation> = policy
                    .allowed(op)
                    .iter()
                    .copied()
                    .filter(|a| !a.points_up())
                    .collect();
                assert!(
                    !non_up.is_empty(),
                    "cannot repair cycle at {child:?}: every allowed annotation points up"
                );
                plan.node_mut(child).ann = *rng.pick(&non_up);
            }
        }
    }
    panic!("well-formedness repair did not converge (bug)");
}

/// Grow a random join tree over the query's relations.
// Invariant panic: the forest starts with one tree per relation and each
// round joins two into one, so exactly one tree remains at the end.
#[allow(clippy::expect_used)]
pub fn random_join_tree(query: &QuerySpec, rng: &mut SimRng) -> JoinTree {
    assert!(query.num_relations() > 0, "empty query");
    let mut forest: Vec<(JoinTree, RelSet)> = query
        .relations
        .iter()
        .map(|r| (JoinTree::leaf(r.id), RelSet::single(r.id)))
        .collect();
    while forest.len() > 1 {
        // Prefer a joinable pair; fall back to any pair (cross product).
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for i in 0..forest.len() {
            for j in 0..forest.len() {
                if i != j && query.joinable(forest[i].1, forest[j].1) {
                    pairs.push((i, j));
                }
            }
        }
        let (i, j) = if pairs.is_empty() {
            let i = rng.below(forest.len());
            let mut j = rng.below(forest.len() - 1);
            if j >= i {
                j += 1;
            }
            (i, j)
        } else {
            *rng.pick(&pairs)
        };
        let (hi, lo) = if i > j { (i, j) } else { (j, i) };
        let (t_hi, s_hi) = forest.swap_remove(hi);
        let (t_lo, s_lo) = forest.swap_remove(lo);
        // Random build/probe orientation.
        let (inner, outer, si, so) = if rng.chance(0.5) {
            (t_hi, t_lo, s_hi, s_lo)
        } else {
            (t_lo, t_hi, s_lo, s_hi)
        };
        forest.push((JoinTree::join(inner, outer), si.union(so)));
    }
    forest.pop().expect("non-empty forest").0
}

/// Take one uniformly random move from `moves`, returning a
/// checker-verified plan (see [`apply_move_verified`]); `None` when the
/// move would break well-formedness or nothing applies.
///
/// `moves` must be `applicable_moves(plan, policy, set)` for the move set
/// in use; a search keeps that list for its current plan and rebuilds it
/// only when it moves to a new plan.
pub fn random_neighbor(
    plan: &Plan,
    moves: &[Move],
    query: &QuerySpec,
    policy: Policy,
    rng: &mut SimRng,
) -> Option<(Plan, MoveKind)> {
    if moves.is_empty() {
        return None;
    }
    let mv = *rng.pick(moves);
    let candidate = apply_move_verified(plan, mv, query, policy)?;
    Some((candidate, mv.kind))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moves::{applicable_moves, MoveSet};
    use csqp_catalog::{JoinEdge, RelId, Relation};
    use csqp_core::is_well_formed;

    fn chain(n: u32) -> QuerySpec {
        let rels = (0..n)
            .map(|i| Relation::benchmark(RelId(i), format!("R{i}")))
            .collect();
        let edges = (0..n - 1)
            .map(|i| JoinEdge {
                a: RelId(i),
                b: RelId(i + 1),
                selectivity: 1e-4,
            })
            .collect();
        QuerySpec::new(rels, edges)
    }

    #[test]
    fn random_plans_are_valid_for_their_policy() {
        let q = chain(6);
        let mut rng = SimRng::seed_from_u64(11);
        for policy in Policy::ALL {
            for _ in 0..50 {
                let p = random_plan(&q, policy, &mut rng);
                p.validate_structure(&q).unwrap();
                policy.validate(&p).unwrap();
                assert!(is_well_formed(&p));
            }
        }
    }

    #[test]
    fn random_trees_avoid_cross_products_on_chains() {
        // Chains always admit a connected merge order, so no cross
        // products should appear.
        let q = chain(8);
        let mut rng = SimRng::seed_from_u64(3);
        for _ in 0..30 {
            let tree = random_join_tree(&q, &mut rng);
            let plan = tree.into_plan(&q, Annotation::Consumer, Annotation::Client);
            for j in plan.join_nodes() {
                let n = plan.node(j);
                let l = plan.rel_set(n.children[0].unwrap());
                let r = plan.rel_set(n.children[1].unwrap());
                assert!(q.joinable(l, r), "cross product in {plan}");
            }
        }
    }

    #[test]
    fn random_trees_cover_multiple_shapes() {
        let q = chain(5);
        let mut rng = SimRng::seed_from_u64(7);
        let shapes: std::collections::HashSet<String> = (0..40)
            .map(|_| {
                random_join_tree(&q, &mut rng)
                    .into_plan(&q, Annotation::Consumer, Annotation::Client)
                    .render_compact()
            })
            .collect();
        assert!(shapes.len() > 5, "only {} distinct shapes", shapes.len());
    }

    #[test]
    fn neighbor_is_well_formed_and_valid() {
        let q = chain(4);
        let mut rng = SimRng::seed_from_u64(5);
        let mut ok = 0;
        for policy in Policy::ALL {
            let mut plan = random_plan(&q, policy, &mut rng);
            for _ in 0..100 {
                let moves = applicable_moves(&plan, policy, MoveSet::for_policy(policy));
                if let Some((next, _)) = random_neighbor(&plan, &moves, &q, policy, &mut rng) {
                    next.validate_structure(&q).unwrap();
                    policy.validate(&next).unwrap();
                    assert!(is_well_formed(&next));
                    plan = next;
                    ok += 1;
                }
            }
        }
        assert!(ok > 100, "too few successful moves: {ok}");
    }

    #[test]
    fn repair_fixes_injected_cycle() {
        let q = chain(3);
        let mut rng = SimRng::seed_from_u64(9);
        let mut plan = JoinTree::left_deep(&[RelId(0), RelId(1), RelId(2)]).into_plan(
            &q,
            Annotation::Consumer,
            Annotation::PrimaryCopy,
        );
        let joins = plan.join_nodes();
        plan.node_mut(joins[1]).ann = Annotation::InnerRel;
        assert!(!is_well_formed(&plan));
        repair_wellformedness(&mut plan, Policy::HybridShipping, &mut rng);
        assert!(is_well_formed(&plan));
        Policy::HybridShipping.validate(&plan).unwrap();
    }

    #[test]
    fn single_relation_query_yields_leaf() {
        let q = QuerySpec::new(vec![Relation::benchmark(RelId(0), "A")], vec![]);
        let mut rng = SimRng::seed_from_u64(1);
        let t = random_join_tree(&q, &mut rng);
        assert_eq!(t, JoinTree::leaf(RelId(0)));
    }
}
