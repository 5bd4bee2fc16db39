//! Heap-allocation budgets for the back half: netlist and layout.
//!
//! A counting global allocator wraps [`System`].  The one test below
//! netlists three pinned macros, lays out two and checks one, and counts
//! the allocations (`alloc`, `alloc_zeroed` and `realloc` calls) each step
//! makes: the netlist generator, its statistics and the SPICE writer; the
//! column template, the macro assembly and the DEF and GDS writers; the
//! DRC run.  Each count must stay under its ceiling, which is the count
//! recorded when the budget was set plus about 10 % headroom for changes
//! in std.  Allocation counts repeat exactly from run to run, unlike
//! wall-clock time, so a step that starts allocating per connection, per
//! shape or per grid node again fails here.  The DEF and GDS writers
//! reserve their output once, from the layout's counts, so a writer whose
//! buffer grows as it writes (20 to 29 allocations on these macros) fails
//! here too.  DRC formats flat names only for the violations it reports,
//! so a DRC run that copies the flat view again (28,117 allocations on its
//! macro) fails here as well.
//!
//! Only the allocations of the thread running a step are counted: the test
//! harness's other threads may allocate while a step runs, and under load
//! such allocations landed inside the 12-allocation SPICE window.  Run with
//! `--nocapture` to print the counts when a budget needs re-recording.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use acim_arch::AcimSpec;
use acim_cell::CellLibrary;
use acim_layout::{check_layout, write_def, write_gds_text, ColumnTemplate, LayoutFlow};
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
        column: 2_292,
        generate: 4_815,
        def: 1,
        gds: 8,
    },
    Budget {
        dims: (16, 1024, 2, 3),
        column: 1_822,
        generate: 15_550,
        def: 1,
        gds: 8,
    },
];

/// The macro whose DRC run is counted, and the allocations
/// [`check_layout`] made on it when the budget was recorded: mostly the
/// names of its 48 violations.  It may make 10 % more, rounded up.
const DRC_BUDGET: ((usize, usize, usize, u32), usize) = ((64, 16, 4, 3), 188);

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
