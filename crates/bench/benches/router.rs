//! Criterion bench of the grid-based maze router (Section 2.3 / 3.3),
//! including the ablation the paper's template strategy implies: routing a
//! column's control nets with and without the pre-defined critical-net
//! tracks already reserved.

use acim_cell::{Point, Rect};
use acim_layout::{MazeRouter, Names, RouteRequest, RoutingGrid};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn build_router(block_tracks: bool) -> MazeRouter {
    let grid =
        RoutingGrid::new(Rect::new(0.0, 0.0, 20_000.0, 20_000.0), 100.0, 3).expect("grid builds");
    let mut router = MazeRouter::new(
        grid,
        vec!["M2", "M3", "M4"],
        vec![false, true, false],
        vec![50.0, 56.0, 56.0],
    )
    .expect("router builds");
    if block_tracks {
        // Pre-defined power/critical tracks become obstacles for the maze
        // search, as in the column template.
        for i in 0..6 {
            let x = 2_000.0 + 3_000.0 * f64::from(i);
            router
                .grid_mut()
                .block_rect(0, &Rect::new(x, 0.0, x + 200.0, 20_000.0));
        }
    }
    router
}

/// Twelve three-terminal nets.  Every terminal is distinct: two nets
/// sharing a terminal cannot both be routed.
fn requests() -> Vec<RouteRequest> {
    let mut names = Names::default();
    let requests: Vec<RouteRequest> = (0..12u32)
        .map(|i| {
            let offset = f64::from(i) * 1_500.0;
            RouteRequest {
                net: names.add(format_args!("net_{i}")),
                terminals: vec![
                    (0, Point::new(300.0 + offset, 200.0)),
                    (0, Point::new(18_000.0 - offset, 19_000.0)),
                    (0, Point::new(9_000.0, 400.0 + offset)),
                ],
            }
        })
        .collect();
    let terminals: Vec<Point> = requests
        .iter()
        .flat_map(|r| r.terminals.iter().map(|&(_, p)| p))
        .collect();
    for (i, terminal) in terminals.iter().enumerate() {
        assert!(
            !terminals[..i].contains(terminal),
            "shared terminal {terminal:?}"
        );
    }
    requests
}

fn router_bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("router");
    group.sample_size(10);
    for (name, with_tracks) in [("open_region", false), ("with_predefined_tracks", true)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut router = build_router(with_tracks);
                let reqs = requests();
                router.reserve_terminals(&reqs);
                let mut segments = 0usize;
                for request in &reqs {
                    let (wires, _vias) = router.route(request).expect("routes");
                    segments += wires.len();
                }
                black_box(segments)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, router_bench);
criterion_main!(benches);
