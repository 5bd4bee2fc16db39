//! Where exploration parallelism lives: a macro exploration scores every
//! batch on the calling thread, and only the chip exploration fans its
//! batches out to work-stealing tasks.
//!
//! One test in its own integration-test binary (= its own process): the
//! thread count is cached on first use, so `RAYON_NUM_THREADS` must be set
//! before any parallel call, and the process-global pool counters the
//! explorers diff must see no other test's work.

use acim_chip::Network;
use acim_dse::{ChipDseConfig, ChipExplorer, DesignSpaceExplorer, DseConfig};

#[test]
fn macro_exploration_runs_on_the_calling_thread_and_chip_exploration_fans_out() {
    std::env::set_var(rayon::NUM_THREADS_ENV, "2");
    assert_eq!(rayon::current_num_threads(), 2);

    let macro_run = DesignSpaceExplorer::new(DseConfig {
        population_size: 40,
        generations: 10,
        ..DseConfig::default()
    })
    .unwrap()
    .explore()
    .unwrap();
    assert!(macro_run.engine.evaluations > 0);
    assert_eq!(
        macro_run.engine.pool.tasks_executed, 0,
        "macro batches must be scored on the calling thread"
    );

    let chip_run = ChipExplorer::new(ChipDseConfig {
        population_size: 16,
        generations: 4,
        grid_rows: vec![1, 2],
        grid_cols: vec![1, 2],
        ..ChipDseConfig::for_mix(Network::edge_cnn(1))
    })
    .unwrap()
    .explore()
    .unwrap();
    assert!(
        chip_run.engine.pool.tasks_executed > 0,
        "chip batches must fan out to work-stealing tasks"
    );
}
