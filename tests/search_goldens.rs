//! Pinned outcomes of the two-phase search.
//!
//! Every policy × objective cell over five query shapes runs the
//! optimizer with `OptConfig::fast()` and one fixed seed, and pins three
//! things: the FNV-1a hash of the chosen plan's compact rendering, the
//! bit pattern of its cost, and the number of cost evaluations the
//! search made. A refactor of the cost model or the search loop must
//! take the same steps and land on the same plan at the same cost, so
//! all three stay equal.

// Tests panic on broken setup by design.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use csqp::catalog::{Catalog, QuerySpec, RelId, SiteId, SystemConfig};
use csqp::core::Policy;
use csqp::cost::{CostModel, Objective};
use csqp::optimizer::{OptConfig, Optimizer};
use csqp::serve::server::fnv1a;
use csqp::simkernel::rng::SimRng;
use csqp::workload::{chain_query, spj_query, star_query, MODERATE_SEL};

const SEED: u64 = 20_240_601;

/// Relation `i` on server `1 + i % servers`.
fn round_robin(query: &QuerySpec, servers: u32) -> Catalog {
    let mut c = Catalog::new(servers);
    for r in &query.relations {
        c.place(r.id, SiteId::server(1 + r.id.0 % servers));
    }
    c
}

/// The query shapes of the grid, each with its catalog.
fn shapes() -> Vec<(&'static str, QuerySpec, Catalog)> {
    let chain2 = chain_query(2, MODERATE_SEL);
    let cat2 = round_robin(&chain2, 1);

    let chain5 = chain_query(5, MODERATE_SEL);
    let cat5 = round_robin(&chain5, 2);

    let chain10 = chain_query(10, MODERATE_SEL);
    let mut cat10 = round_robin(&chain10, 3);
    for (i, frac) in [1.0, 0.0, 0.5, 0.25, 1.0, 0.0, 0.75, 0.1, 0.0, 0.5]
        .into_iter()
        .enumerate()
    {
        cat10.set_cached_fraction(RelId(i as u32), frac);
    }

    let star4 = star_query(4, MODERATE_SEL);
    let cat_star = round_robin(&star4, 2);

    let spj = spj_query(4, MODERATE_SEL, 0.1, 2).with_aggregate(100);
    let mut cat_spj = round_robin(&spj, 2);
    cat_spj.set_cached_fraction(RelId(1), 0.5);

    vec![
        ("chain2", chain2, cat2),
        ("chain5", chain5, cat5),
        ("chain10-cached", chain10, cat10),
        ("star4", star4, cat_star),
        ("spj4-sel-agg", spj, cat_spj),
    ]
}

/// `(shape, policy, objective, plan hash, cost bits, evaluations)`.
type Cell = (&'static str, &'static str, &'static str, u64, u64, u64);

// Recorded from a cost model that bound and walked each plan once per
// objective: pricing all objectives in one walk reproduces every cell.
#[rustfmt::skip]
const GOLDENS: &[Cell] = &[
    ("chain2", "DS", "comm", 0x31fb4e3256aec3f3, 0x407f41b8d09685e9, 309),
    ("chain2", "DS", "rt", 0x31fb4e3256aec3f3, 0x401e854935531e0b, 309),
    ("chain2", "DS", "total", 0x31fb4e3256aec3f3, 0x4025862f5989df12, 309),
    ("chain2", "QS", "comm", 0x430bf3f5ea4a6f83, 0x406f432dde5f9c48, 309),
    ("chain2", "QS", "rt", 0x430bf3f5ea4a6f83, 0x4022c2382fc742f5, 309),
    ("chain2", "QS", "total", 0x430bf3f5ea4a6f83, 0x4023deadd590c0ae, 309),
    ("chain2", "HY", "comm", 0x430bf3f5ea4a6f83, 0x406f432dde5f9c48, 1029),
    ("chain2", "HY", "rt", 0x247eccf218bdb623, 0x401e84d9bbf38ba9, 1031),
    ("chain2", "HY", "total", 0x430bf3f5ea4a6f83, 0x4023deadd590c0ae, 1029),
    ("chain5", "DS", "comm", 0xb8e798c2f6ebae1b, 0x4093898a49c2c1b1, 399),
    ("chain5", "DS", "rt", 0xb8e798c2f6ebae1b, 0x403e841f7007cfd9, 399),
    ("chain5", "DS", "total", 0xb8e798c2f6ebae1b, 0x4043409a02752547, 399),
    ("chain5", "QS", "comm", 0x926f4a661f2e403a, 0x408772ee57610fe5, 547),
    ("chain5", "QS", "rt", 0x6d8411ace699fc7c, 0x4031e68316cb4894, 551),
    ("chain5", "QS", "total", 0x926f4a661f2e403a, 0x404251a21ea35936, 547),
    ("chain5", "HY", "comm", 0xf8b4cc5d5fa41540, 0x408772ee57610fe5, 2245),
    ("chain5", "HY", "rt", 0x258fd53b03ad5990, 0x402e8d6f89fb96e5, 2423),
    ("chain5", "HY", "total", 0xf8b4cc5d5fa41540, 0x404251a21ea35936, 2255),
    ("chain10-cached", "DS", "comm", 0x9a91477bf64698cf, 0x40971349fc8b46ea, 954),
    ("chain10-cached", "DS", "rt", 0x749e7bf3ddacdedf, 0x40520f69ae48edfa, 991),
    ("chain10-cached", "DS", "total", 0x749e7bf3ddacdedf, 0x40548e6a667b3428, 991),
    ("chain10-cached", "QS", "comm", 0x1adb5147c770caa2, 0x409b5b41a495761e, 1288),
    ("chain10-cached", "QS", "rt", 0xb4093c4344c48869, 0x403a70befd814a99, 1434),
    ("chain10-cached", "QS", "total", 0x1adb5147c770caa2, 0x40545a44a6223e19, 1278),
    ("chain10-cached", "HY", "comm", 0xf614183da9bf23ad, 0x40971343746ead56, 4798),
    ("chain10-cached", "HY", "rt", 0xa9c1041a77f0b890, 0x4036f0ccecad3ce6, 6628),
    ("chain10-cached", "HY", "total", 0x8ff4ffe5e22abce9, 0x40544e272862f599, 5229),
    ("star4", "DS", "comm", 0xa5f277778f15faf4, 0x408f42572fc76de8, 369),
    ("star4", "DS", "rt", 0xa5f277778f15faf4, 0x4036e3306476cd12, 369),
    ("star4", "DS", "total", 0xa5f277778f15faf4, 0x403d41d53cddd6e1, 369),
    ("star4", "QS", "comm", 0x0b899e312b47f04e, 0x407f446a9cc16c46, 390),
    ("star4", "QS", "rt", 0x0b899e312b47f04e, 0x40310432f9fd5c8d, 413),
    ("star4", "QS", "total", 0x0b899e312b47f04e, 0x403b9a53b8e4b87d, 390),
    ("star4", "HY", "comm", 0x2c5a89d1b0836681, 0x407f446a9cc16c46, 1658),
    ("star4", "HY", "rt", 0xa255e2cfcbc4b6a1, 0x4022cb78a2fef310, 1817),
    ("star4", "HY", "total", 0x2c5a89d1b0836681, 0x403b9a53b8e4b87d, 1656),
    ("spj4-sel-agg", "DS", "comm", 0x7e3426ea01e4abc8, 0x408b591265d5389e, 503),
    ("spj4-sel-agg", "DS", "rt", 0x7e3426ea01e4abc8, 0x401ff2dc412888d5, 503),
    ("spj4-sel-agg", "DS", "total", 0x7e3426ea01e4abc8, 0x402acbf1d2876886, 503),
    ("spj4-sel-agg", "QS", "comm", 0x50ee13b02b40ce13, 0x404a8e817b47c0c4, 449),
    ("spj4-sel-agg", "QS", "rt", 0xe31688d34fe1c31a, 0x4017cf43248489c2, 444),
    ("spj4-sel-agg", "QS", "total", 0x0dfada4e051127f6, 0x4026aa50a01d3308, 411),
    ("spj4-sel-agg", "HY", "comm", 0x50ee13b02b40ce13, 0x404a8e817b47c0c4, 1940),
    ("spj4-sel-agg", "HY", "rt", 0xc31b84dcd158c49c, 0x4012abed78ee0890, 2411),
    ("spj4-sel-agg", "HY", "total", 0x50ee13b02b40ce13, 0x4026aa50a01d3308, 2006),
];

fn objective_name(o: Objective) -> &'static str {
    match o {
        Objective::Communication => "comm",
        Objective::ResponseTime => "rt",
        Objective::TotalCost => "total",
    }
}

fn policy_name(p: Policy) -> &'static str {
    match p {
        Policy::DataShipping => "DS",
        Policy::QueryShipping => "QS",
        Policy::HybridShipping => "HY",
    }
}

fn run_grid() -> Vec<Cell> {
    let cfg = SystemConfig::default();
    let mut out = Vec::new();
    for (shape, query, catalog) in shapes() {
        let model = CostModel::new(&cfg, &catalog, &query, SiteId::CLIENT);
        for policy in Policy::ALL {
            for objective in [
                Objective::Communication,
                Objective::ResponseTime,
                Objective::TotalCost,
            ] {
                let opt = Optimizer::new(&model, policy, objective, OptConfig::fast());
                let r = opt.optimize(&query, &mut SimRng::seed_from_u64(SEED));
                out.push((
                    shape,
                    policy_name(policy),
                    objective_name(objective),
                    fnv1a(r.plan.render_compact().as_bytes()),
                    r.cost.to_bits(),
                    r.evaluations,
                ));
            }
        }
    }
    out
}

#[test]
fn two_phase_search_is_pinned() {
    let got = run_grid();
    let table: String = got
        .iter()
        .map(|(s, p, o, h, c, e)| {
            format!("    ({s:?}, {p:?}, {o:?}, {h:#018x}, {c:#018x}, {e}),\n")
        })
        .collect();
    assert_eq!(got.len(), GOLDENS.len(), "grid size changed; now:\n{table}");
    for (g, want) in got.iter().zip(GOLDENS) {
        assert_eq!(g, want, "search outcome moved; full table now:\n{table}");
    }
}
