//! Heap-allocation budgets for the back half (netlist and layout), for
//! one NSGA-II run, for one behavioural chip validation and for one warm
//! cached exploration.
//!
//! A counting global allocator wraps [`System`].  The first test below
//! netlists three pinned macros, lays out two and checks one, and counts
//! the allocations (`alloc`, `alloc_zeroed` and `realloc` calls) each step
//! makes: the netlist generator, its statistics and the SPICE writer; the
//! column template, the macro assembly and the DEF and GDS writers; the
//! DRC run.  The second counts one seeded `Nsga2::run`, whose selection
//! keeps its sort and crowding buffers for the whole run and moves its
//! survivors, so a generation allocates little beyond its offspring's
//! genomes.  Each count must stay under its ceiling, which is the count
//! recorded when the budget was set plus about 10 % headroom for changes
//! in std.  Allocation counts repeat exactly from run to run, unlike
//! wall-clock time, so a step that starts allocating per connection, per
//! shape or per grid node again fails here.  Placed instances, wires, vias
//! and pins name their cell and layer by `&'static str`, and themselves and
//! their nets by an id into their block's name table, whose texts share
//! one buffer.  So a column build or macro assembly that copies cell or
//! layer names into every object again (2,292 and 4,815 allocations on
//! 128x128 L8 B3, 1,822 and 15,550 on 16x1024 L2 B3, counted when these
//! rows were first recorded) fails here, and so does one that gives every
//! object a name `String` of its own again (1,036 and 2,379; 798 and
//! 8,194, counted before the name tables).  The maze router keeps its
//! search buffers from one search to the next, so a column build that
//! allocates them per search again (823 and 811 allocations) fails here.
//! The DEF and GDS writers reserve their output once, from the layout's
//! counts, so a writer whose buffer grows as it writes (20 to 29
//! allocations on these macros) fails here too.  They stamp each column
//! of the macro's array from a template whose five buffers they allocate
//! once per section, not per column, and format each column's name prefix
//! on the stack: 11 allocations for DEF and 23 for GDS on both macros,
//! whatever their width.  DRC formats names only for the violations it
//! reports and names their layers by `&'static str`, so a DRC run that
//! copies every object's name again (28,117 allocations on its macro) or
//! copies each violation's layer name again (188) fails here as well.  So does an
//! NSGA-II selection that sorts into fresh buffers or clones its survivors
//! each generation (9,383 allocations on the NSGA-II run).  The third
//! counts one `simulate_mix`, whose workload lowering keeps only each
//! weight row's bits: a lowering that builds a real-valued matrix and
//! clones and fully sorts every row to find its median (762 allocations
//! on its fixture, counted when it read 587) fails here, and so do CDAC
//! banks that collect their SAR group sizes into a throwaway vector per
//! column (587).  The fourth counts one macro `explore_with` whose every
//! lookup hits a `CacheStore` an identical run filled: a hit allocates
//! only its decode-bucket key (the stored evaluation's objectives sit
//! inline), so a cache or explorer layer that starts allocating per
//! lookup fails here.
//!
//! Only the allocations of the thread running a step are counted: the test
//! harness's other threads may allocate while a step runs, and under load
//! such allocations landed inside the 12-allocation SPICE window.  Run with
//! `--nocapture` to print the counts when a budget needs re-recording.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use acim_arch::AcimSpec;
use acim_cell::CellLibrary;
use acim_chip::{simulate_mix, ChipSpec, MacroGrid, Network, WorkloadMix};
use acim_dse::{DesignSpaceExplorer, DseConfig, ExploreOptions};
use acim_layout::{check_layout, write_def, write_gds_text, ColumnTemplate, LayoutFlow};
use acim_model::ModelParams;
use acim_moga::{CacheStore, Evaluation, Nsga2, Nsga2Config, Problem};
use acim_netlist::{design_stats, write_spice, NetlistGenerator};
use acim_tech::Technology;

/// Forwards to [`System`], counting every call that hands out memory on
/// the calling thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Counts one allocation of the current thread.  The thread-local is
/// const-initialised and has no destructor, so reaching it never
/// allocates; `try_with` skips a thread whose thread-locals are gone.
fn note_allocation() {
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// implements `GlobalAlloc` correctly; counting touches only a
// const-initialised thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: `ptr` was allocated by this allocator, which is `System`,
        // with `layout`; the caller upholds the rest of the contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator, which is `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `step` and returns its value with the allocations it made.
fn counted<T>(step: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = step();
    (value, ALLOCATIONS.with(Cell::get) - before)
}

/// A pinned macro and the allocations its three netlist steps made when
/// the budget was recorded.  Each step may make 10 % more, rounded up.
struct NetlistBudget {
    dims: (usize, usize, usize, u32),
    generate: usize,
    stats: usize,
    spice: usize,
}

const NETLIST_BUDGETS: [NetlistBudget; 3] = [
    NetlistBudget {
        dims: (64, 16, 4, 3),
        generate: 838,
        stats: 1,
        spice: 12,
    },
    NetlistBudget {
        dims: (1024, 16, 2, 8),
        generate: 8_966,
        stats: 1,
        spice: 16,
    },
    NetlistBudget {
        dims: (16, 1024, 2, 3),
        generate: 19_419,
        stats: 1,
        spice: 17,
    },
];

/// A pinned macro and the allocations its four layout steps made when the
/// budget was recorded.  Each step may make 10 % more, rounded up.
struct Budget {
    dims: (usize, usize, usize, u32),
    column: usize,
    generate: usize,
    def: usize,
    gds: usize,
}

const BUDGETS: [Budget; 2] = [
    Budget {
        dims: (128, 128, 8, 3),
        column: 317,
        generate: 364,
        def: 11,
        gds: 23,
    },
    Budget {
        dims: (16, 1024, 2, 3),
        column: 305,
        generate: 358,
        def: 11,
        gds: 23,
    },
];

/// The macro whose DRC run is counted, and the allocations
/// [`check_layout`] made on it when the budget was recorded: mostly the
/// names of its 48 violations.  It may make 10 % more, rounded up.
const DRC_BUDGET: ((usize, usize, usize, u32), usize) = ((64, 16, 4, 3), 138);

/// Checks `count` against the ceiling of `recorded` and notes an overrun.
fn check(over: &mut Vec<String>, what: String, count: usize, recorded: usize) {
    let ceiling = recorded + recorded.div_ceil(10);
    eprintln!("{what}: {count} allocations (recorded {recorded}, ceiling {ceiling})");
    if count > ceiling {
        over.push(format!("{what}: {count} > {ceiling}"));
    }
}

/// Counts the netlist steps, then the layout steps, then DRC.  The name
/// predates the netlist and DRC rows, which join this function so that one
/// thread counts all.
#[test]
fn layout_steps_stay_within_their_allocation_budgets() {
    let tech = Technology::s28();
    let library = CellLibrary::s28_default(&tech);
    let generator = NetlistGenerator::new(&library);
    let flow = LayoutFlow::new(&tech, &library);
    let mut over = Vec::new();
    for budget in &NETLIST_BUDGETS {
        let (h, w, l, bits) = budget.dims;
        let spec = AcimSpec::from_dimensions(h, w, l, bits).expect("valid spec");
        let (design, generate_count) =
            counted(|| generator.generate(&spec).expect("netlist generates"));
        let (stats, stats_count) = counted(|| design_stats(&design, &library).expect("stats"));
        let (spice, spice_count) =
            counted(|| write_spice(&design, &library).expect("SPICE writes"));
        assert_eq!(stats.sram_cells, h * w);
        assert!(!spice.is_empty());
        for (step, count, recorded) in [
            (
                "NetlistGenerator::generate",
                generate_count,
                budget.generate,
            ),
            ("design_stats", stats_count, budget.stats),
            ("write_spice", spice_count, budget.spice),
        ] {
            check(
                &mut over,
                format!("{h}x{w} L{l} B{bits} {step}"),
                count,
                recorded,
            );
        }
    }
    for budget in &BUDGETS {
        let (h, w, l, bits) = budget.dims;
        let spec = AcimSpec::from_dimensions(h, w, l, bits).expect("valid spec");
        let (column, column_count) =
            counted(|| ColumnTemplate::build(&spec, &tech, &library).expect("column builds"));
        drop(column);
        let (macro_layout, generate_count) =
            counted(|| flow.generate(&spec).expect("layout generates"));
        let (def, def_count) = counted(|| write_def(&macro_layout.layout));
        let (gds, gds_count) = counted(|| write_gds_text(&macro_layout.layout, &tech));
        assert!(!def.is_empty() && !gds.is_empty());
        for (step, count, recorded) in [
            ("ColumnTemplate::build", column_count, budget.column),
            ("LayoutFlow::generate", generate_count, budget.generate),
            ("write_def", def_count, budget.def),
            ("write_gds_text", gds_count, budget.gds),
        ] {
            check(
                &mut over,
                format!("{h}x{w} L{l} B{bits} {step}"),
                count,
                recorded,
            );
        }
    }
    let (h, w, l, bits) = DRC_BUDGET.0;
    let spec = AcimSpec::from_dimensions(h, w, l, bits).expect("valid spec");
    let macro_layout = flow.generate(&spec).expect("layout generates");
    let (report, drc_count) = counted(|| check_layout(&macro_layout.layout, &tech));
    assert_eq!(report.violations.len(), 48);
    check(
        &mut over,
        format!("{h}x{w} L{l} B{bits} check_layout"),
        drc_count,
        DRC_BUDGET.1,
    );
    assert!(over.is_empty(), "over budget: {over:#?}");
}

/// A cheap three-objective problem whose objectives and violation snap to
/// a 0.25 grid, so its combined populations hold many duplicate rows, as a
/// paper-budget exploration's do.
struct SnappedGrid;

impl Problem for SnappedGrid {
    fn num_variables(&self) -> usize {
        3
    }
    fn num_objectives(&self) -> usize {
        3
    }
    fn evaluate(&self, genes: &[f64]) -> Evaluation {
        let snap = |x: f64| (x * 4.0).round() / 4.0;
        let objectives = [
            snap(genes[0]),
            snap(1.0 - genes[0] * genes[1]),
            snap(genes[2] + (1.0 - genes[1]) / 2.0),
        ];
        let violation = ((0.5 - genes[1] - genes[2]).max(0.0) * 4.0).ceil() / 4.0;
        Evaluation::new(objectives, violation)
    }
}

/// The allocations one seeded NSGA-II run (population 200 × 20
/// generations) made when the budget was recorded: per generation, the
/// offspring genomes and the survivors' clones.  Selection keeps its
/// buffers for the whole run, so a sort or crowding pass that allocates
/// per generation again fails here.  It may make 10 % more, rounded up.
const NSGA2_BUDGET: usize = 4_411;

#[test]
fn nsga2_run_stays_within_its_allocation_budget() {
    let config = Nsga2Config {
        population_size: 200,
        generations: 20,
        ..Nsga2Config::default()
    };
    let (result, count) = counted(|| Nsga2::new(SnappedGrid, config).with_seed(7).run());
    assert_eq!(result.population.len(), 200);
    let mut over = Vec::new();
    check(
        &mut over,
        "Nsga2::run 200x20".to_string(),
        count,
        NSGA2_BUDGET,
    );
    assert!(over.is_empty(), "over budget: {over:#?}");
}

/// The allocations one behavioural chip validation made when the budget
/// was recorded: `simulate_mix` of the golden_validation fixture,
/// `edge_cnn(1)` on a 2x2 grid of 64x16 L4 B4 macros at seed 0xC812 (three
/// layers, six tile macros, 86 cycles).  Lowering reuses one row buffer
/// and one selection buffer across a layer's rows and keeps only each
/// row's bits, so a lowering that builds a real-valued matrix and clones
/// and sorts every row again (762 allocations, counted when this row
/// read 587) fails here.  Each column's CDAC bank reads its SAR group
/// sizes from an iterator, so a bank that collects them into a throwaway
/// vector again (587) fails here too.  It may make 10 % more, rounded up.
const SIMULATE_MIX_BUDGET: usize = 491;

#[test]
fn simulate_mix_stays_within_its_allocation_budget() {
    let spec = AcimSpec::from_dimensions(64, 16, 4, 4).expect("valid spec");
    let grid = MacroGrid::uniform(2, 2, spec).expect("valid grid");
    let chip = ChipSpec::new(grid, 64).expect("valid chip");
    let mix = WorkloadMix::from(Network::edge_cnn(1));
    let params = ModelParams::s28_default();
    let (report, count) =
        counted(|| simulate_mix(&chip, &mix, &params, 0xC812).expect("simulation runs"));
    assert_eq!(report.total_cycles, 86);
    let mut over = Vec::new();
    check(
        &mut over,
        "simulate_mix edge_cnn(1) 2x2".to_string(),
        count,
        SIMULATE_MIX_BUDGET,
    );
    assert!(over.is_empty(), "over budget: {over:#?}");
}

/// The allocations one warm cached macro exploration made when the budget
/// was recorded: `explore_with` at 4 kb, population 40 × 10 generations,
/// seed 0xACE5, over a `CacheStore` an identical first run filled, so
/// every one of its 440 lookups hits: per generation, the offspring
/// genomes and one key per lookup.  It may make 10 % more, rounded up.
const WARM_EXPLORE_BUDGET: usize = 1_185;

#[test]
fn warm_cached_exploration_stays_within_its_allocation_budget() {
    let config = DseConfig {
        array_size: 4 * 1024,
        population_size: 40,
        generations: 10,
        ..DseConfig::default()
    };
    let explorer = DesignSpaceExplorer::new(config).expect("valid config");
    let options = ExploreOptions {
        cache: Some(CacheStore::new()),
        ..ExploreOptions::default()
    };
    let cold = explorer.explore_with(&options, |_| {}).expect("explores");
    let (warm, count) = counted(|| explorer.explore_with(&options, |_| {}).expect("explores"));
    assert_eq!(warm.engine.cache.misses, 0);
    assert_eq!(warm.engine.cache.hits, warm.engine.evaluations);
    assert_eq!(warm.engine.evaluations, 440);
    assert_eq!(warm.len(), cold.len());
    let mut over = Vec::new();
    check(
        &mut over,
        "warm explore_with 4kb 40x10".to_string(),
        count,
        WARM_EXPLORE_BUDGET,
    );
    assert!(over.is_empty(), "over budget: {over:#?}");
}
