//! Chip-level co-exploration: macro shape × macro count × buffer sizing
//! for a multi-layer edge CNN.
//!
//! The single-macro flow answers "what is the best macro?"; this example
//! answers the architect's next question: "how many of them, behind how
//! much buffer, serve my *network* best?"  It runs the chip-level NSGA-II
//! exploration twice to demonstrate seed-determinism (with cache hits
//! answering re-sampled designs, the front is bit-reproducible), prints the
//! chip Pareto front together with the evaluation-engine stats
//! (evaluations/s, cache hit rate, wall-clock per generation), repeats the
//! search with **heterogeneous grids** (per-tile macro genes, so NSGA-II
//! can mix macro shapes across the chip), and finally maps the CNN onto
//! the winning macro grid behaviourally, layer by layer.
//!
//! ```bash
//! cargo run --release --example chip_exploration
//! # tiny budget (used by the CI smoke job):
//! cargo run --release --example chip_exploration -- --quick
//! ```

use easyacim::prelude::*;
use easyacim::{chip_frontier_table, chip_report};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // `--quick` shrinks the budget so CI can exercise the full evaluation
    // path (batch evaluation, caching, heterogeneous genomes) in seconds.
    let quick = std::env::args().any(|arg| arg == "--quick");
    let (population_size, generations) = if quick { (16, 6) } else { (48, 30) };

    let network = Network::edge_cnn(3);
    println!("target network: {network}");
    for layer in &network.layers {
        let (outputs, dot_length) = layer.shape();
        println!(
            "  {:<8} {:>4} outputs x {:>4}-long dot products",
            layer.name, outputs, dot_length
        );
    }
    println!();

    // Co-explore macro (H, L, B_ADC) x grid (rows, cols) x buffer KiB.
    let mut dse = ChipDseConfig::for_mix(network.clone());
    dse.population_size = population_size;
    dse.generations = generations;
    let explorer = ChipExplorer::new(dse.clone())?;
    let frontier = explorer.explore()?;
    println!(
        "chip exploration: {} evaluations, {} Pareto-frontier chips",
        frontier.engine.evaluations,
        frontier.len()
    );
    println!(
        "evaluation engine: {:.0} evals/s, cache {}, {:.1} ms mean per generation",
        frontier.engine.evaluations_per_second(),
        frontier.engine.cache,
        frontier.engine.mean_generation_seconds() * 1e3,
    );

    // Determinism: the same seed reproduces the same front even though
    // re-sampled designs are answered from the cache.
    let replay = ChipExplorer::new(dse.clone())?.explore()?;
    let identical = frontier.len() == replay.len()
        && frontier
            .iter()
            .zip(replay.iter())
            .all(|(a, b)| a.objective_vector() == b.objective_vector());
    println!("replay with the same seed is identical: {identical}\n");
    assert!(identical, "chip exploration must be deterministic per seed");

    println!("{}", chip_frontier_table(frontier.points()));

    // Heterogeneous grids: every grid position gets its own macro genes,
    // so the explorer can pair high-SNR macros with long-local-array ones
    // on a single chip.
    let mut hetero = dse;
    hetero.heterogeneous = true;
    let hetero_frontier = ChipExplorer::new(hetero)?.explore()?;
    let mixed = hetero_frontier
        .iter()
        .filter(|p| !p.chip.grid.is_uniform())
        .count();
    println!(
        "heterogeneous exploration: {} evaluations, {} frontier chips ({} mixed-macro), cache {}",
        hetero_frontier.engine.evaluations,
        hetero_frontier.len(),
        mixed,
        hetero_frontier.engine.cache,
    );
    println!("{}", chip_frontier_table(hetero_frontier.points()));

    // Run the full flow stage (exploration + behavioural validation of the
    // best-throughput chip): every CNN layer is tiled across the macro
    // grid and simulated on the behavioural macro model.
    let mut stage = ChipFlowConfig::for_mix(network);
    stage.dse.population_size = population_size;
    stage.dse.generations = generations;
    let result = ChipStage::new(stage).run(())?;
    println!("{}", chip_report(&result));
    Ok(())
}
