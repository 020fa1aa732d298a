//! Property tests for the cost model: monotonicity and internal
//! consistency over randomized scenarios.

// Tests panic on broken setup by design.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use csqp_catalog::{Catalog, JoinEdge, QuerySpec, RelId, Relation, SiteId, SystemConfig};
use csqp_core::{bind, is_well_formed, Annotation, BindContext, JoinTree, Plan, Policy};
use csqp_cost::{CostModel, Objective};
use csqp_simkernel::rng::SimRng;
use proptest::prelude::*;

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

fn catalog(n: u32, servers: u32, cached: f64) -> Catalog {
    let mut c = Catalog::new(servers);
    for i in 0..n {
        c.place(RelId(i), SiteId::server(1 + i % servers));
        if cached > 0.0 {
            c.set_cached_fraction(RelId(i), cached);
        }
    }
    c
}

/// A plan with annotations drawn from a seed, rejection-sampled to be
/// well-formed (mirrors the optimizer's generator without depending on
/// the optimizer crate).
fn seeded_plan(query: &QuerySpec, seed: u64) -> Plan {
    let order: Vec<RelId> = query.relations.iter().map(|r| r.id).collect();
    let base = if seed.is_multiple_of(2) {
        JoinTree::left_deep(&order)
    } else {
        JoinTree::balanced(&order)
    };
    let mut plan = base.into_plan(query, Annotation::Consumer, Annotation::Client);
    let mut state = seed;
    for id in plan.postorder() {
        let op = plan.node(id).op;
        let allowed = Policy::HybridShipping.allowed(op);
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let pick = allowed[(state >> 33) as usize % allowed.len()];
        let old = plan.node(id).ann;
        plan.node_mut(id).ann = pick;
        if !is_well_formed(&plan) {
            plan.node_mut(id).ann = old;
        }
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Response time never exceeds total cost, and both are positive.
    #[test]
    fn response_bounded_by_total(n in 2u32..6, seed in 0u64..10_000) {
        let q = chain(n);
        let cat = catalog(n, 2.min(n), 0.25);
        let sys = SystemConfig::default();
        let model = CostModel::new(&sys, &cat, &q, SiteId::CLIENT);
        let plan = seeded_plan(&q, seed);
        let b = bind(&plan, BindContext { catalog: &cat, query_site: SiteId::CLIENT }).unwrap();
        let rt = model.evaluate_bound(&b, Objective::ResponseTime);
        let tc = model.evaluate_bound(&b, Objective::TotalCost);
        prop_assert!(rt > 0.0 && tc > 0.0);
        prop_assert!(rt <= tc + 1e-9, "rt {rt} > total {tc} for {plan}");
    }

    /// Adding external disk load never makes any plan look faster.
    #[test]
    fn load_is_monotone(n in 2u32..5, seed in 0u64..10_000, rho in 0.05f64..0.9) {
        let q = chain(n);
        let cat = catalog(n, 1, 0.0);
        let sys = SystemConfig::default();
        let plan = seeded_plan(&q, seed);
        let b = bind(&plan, BindContext { catalog: &cat, query_site: SiteId::CLIENT }).unwrap();
        let base = CostModel::new(&sys, &cat, &q, SiteId::CLIENT);
        let loaded = CostModel::new(&sys, &cat, &q, SiteId::CLIENT)
            .with_disk_load(SiteId::server(1), rho);
        prop_assert!(
            loaded.evaluate_bound(&b, Objective::ResponseTime) + 1e-12
                >= base.evaluate_bound(&b, Objective::ResponseTime)
        );
        prop_assert!(
            loaded.evaluate_bound(&b, Objective::TotalCost) + 1e-12
                >= base.evaluate_bound(&b, Objective::TotalCost)
        );
    }

    /// For the canonical DS plan, more caching never increases the
    /// communication estimate, and it falls to zero at 100%.
    #[test]
    fn ds_communication_monotone_in_cache(n in 2u32..5, steps in 1usize..5) {
        let q = chain(n);
        let order: Vec<RelId> = (0..n).map(RelId).collect();
        let plan = JoinTree::left_deep(&order).into_plan(
            &q,
            Annotation::Consumer,
            Annotation::Client,
        );
        let sys = SystemConfig::default();
        let mut last = f64::INFINITY;
        for i in 0..=steps {
            let frac = i as f64 / steps as f64;
            let cat = catalog(n, 1, frac);
            let model = CostModel::new(&sys, &cat, &q, SiteId::CLIENT);
            let b = bind(&plan, BindContext { catalog: &cat, query_site: SiteId::CLIENT })
                .unwrap();
            let comm = model.evaluate_bound(&b, Objective::Communication);
            prop_assert!(comm <= last + 1e-9, "caching increased comm: {last} -> {comm}");
            last = comm;
        }
        prop_assert!(last.abs() < 1e-9, "fully cached DS still ships {last}");
    }

    /// Communication is placement-invariant for DS (it always faults
    /// everything) but not generally for QS.
    #[test]
    fn ds_commun_placement_invariant(n in 2u32..5, s1 in 1u32..3, s2 in 1u32..3) {
        let q = chain(n);
        let order: Vec<RelId> = (0..n).map(RelId).collect();
        let plan = JoinTree::left_deep(&order).into_plan(
            &q,
            Annotation::Consumer,
            Annotation::Client,
        );
        let sys = SystemConfig::default();
        let mut vals = Vec::new();
        for s in [s1.min(n), s2.min(n)] {
            let cat = catalog(n, s, 0.0);
            let model = CostModel::new(&sys, &cat, &q, SiteId::CLIENT);
            let b = bind(&plan, BindContext { catalog: &cat, query_site: SiteId::CLIENT })
                .unwrap();
            vals.push(model.evaluate_bound(&b, Objective::Communication));
        }
        prop_assert!((vals[0] - vals[1]).abs() < 1e-9);
        prop_assert!((vals[0] - (250 * n as u64) as f64).abs() < 1e-9);
    }
}

/// A seeded scenario for the one-walk check: a chain of 2–8 relations
/// with random selections and an optional aggregate, placed over 1–3
/// servers with random cache fractions.
fn seeded_scenario(rng: &mut SimRng) -> (QuerySpec, Catalog) {
    let n = 2 + u32::try_from(rng.below(7)).unwrap();
    let mut q = chain(n);
    for i in 0..n {
        if rng.chance(0.3) {
            q = q.with_selection(RelId(i), 0.05 + 0.9 * rng.unit());
        }
    }
    if rng.chance(0.3) {
        q = q.with_aggregate(1 + rng.below(20_000) as u64);
    }
    let servers = 1 + u32::try_from(rng.below(3.min(n as usize))).unwrap();
    let mut cat = catalog(n, servers, 0.0);
    for i in 0..n {
        if rng.chance(0.5) {
            cat.set_cached_fraction(RelId(i), rng.unit());
        }
    }
    (q, cat)
}

/// A random join order and shape with hybrid-shipping annotations,
/// drawn from `rng` and kept well-formed.
fn rng_plan(query: &QuerySpec, rng: &mut SimRng) -> Plan {
    let mut order: Vec<RelId> = query.relations.iter().map(|r| r.id).collect();
    rng.shuffle(&mut order);
    let tree = if rng.chance(0.5) {
        JoinTree::left_deep(&order)
    } else {
        JoinTree::balanced(&order)
    };
    // The query-shipping skeleton points nothing up, so it starts
    // well-formed and every kept redraw leaves it so.
    let mut plan = tree.into_plan(query, Annotation::InnerRel, Annotation::PrimaryCopy);
    for id in plan.postorder() {
        let old = plan.node(id).ann;
        plan.node_mut(id).ann = *rng.pick(Policy::HybridShipping.allowed(plan.node(id).op));
        if !is_well_formed(&plan) {
            plan.node_mut(id).ann = old;
        }
    }
    plan
}

/// `price` binds once and walks once; every objective it reports must
/// equal, bit for bit, what `evaluate_bound` and `evaluate_plan` report
/// for that objective, and its usage must equal the bound walk's.
#[test]
fn one_walk_prices_every_objective_bit_for_bit() {
    let sys = SystemConfig::default();
    let mut rng = SimRng::seed_from_u64(0x5eed_c057);
    for _ in 0..600 {
        let (q, cat) = seeded_scenario(&mut rng);
        let mut model = CostModel::new(&sys, &cat, &q, SiteId::CLIENT);
        if rng.chance(0.3) {
            model = model.with_disk_load(SiteId::server(1), 0.9 * rng.unit());
        }
        let plan = rng_plan(&q, &mut rng);
        let bound = bind(
            &plan,
            BindContext {
                catalog: &cat,
                query_site: SiteId::CLIENT,
            },
        )
        .unwrap();
        let priced = model.price(&plan).unwrap();
        assert_eq!(priced, model.price_bound(&bound), "{plan}");
        for objective in [
            Objective::Communication,
            Objective::ResponseTime,
            Objective::TotalCost,
        ] {
            let want = model.evaluate_bound(&bound, objective).to_bits();
            assert_eq!(priced.get(objective).to_bits(), want, "{objective} {plan}");
            assert_eq!(
                model.evaluate_plan(&plan, objective).map(f64::to_bits),
                Some(want),
                "{objective} {plan}"
            );
        }
        assert_eq!(
            priced.pages_sent.to_bits(),
            priced.usage.pages_sent.to_bits()
        );
        assert_eq!(
            priced.total.to_bits(),
            priced.usage.total_seconds().to_bits()
        );
    }
}
