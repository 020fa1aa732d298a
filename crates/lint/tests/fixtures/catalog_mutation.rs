//! Fixture: direct catalog mutation outside construction-time setup.
//! Intentionally dirty — never compiled, only linted by the fixture
//! tests (this directory is excluded from the workspace walk).

pub fn rebalance(catalog: &mut Catalog) {
    // Moving a primary copy publishes no drift epoch, so memoized plans
    // priced on the old placement are never invalidated.
    catalog.place(RelId(0), SiteId::server(2));
    // So does poking a cached fraction those plans already priced.
    catalog.set_cached_fraction(RelId(0), 0.5);
}
