//! Heap-allocation budgets for the layout back half.
//!
//! A counting global allocator wraps [`System`].  The one test below lays
//! out two pinned macros and counts the allocations (`alloc`,
//! `alloc_zeroed` and `realloc` calls) each step makes: the column
//! template, the macro assembly and the two writers.  Each count must stay
//! under its ceiling, which is the count recorded when the budget was set
//! plus about 10 % headroom for changes in std.  Allocation counts repeat
//! exactly from run to run, unlike wall-clock time, so a step that starts
//! allocating per shape or per grid node again fails here.
//!
//! Everything runs in one test function, so no other test thread allocates
//! while a step is being counted.  Run with `--nocapture` to print the
//! counts when a budget needs re-recording.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use acim_arch::AcimSpec;
use acim_cell::CellLibrary;
use acim_layout::{write_def, write_gds_text, ColumnTemplate, LayoutFlow};
use acim_tech::Technology;

/// Forwards to [`System`], counting every call that hands out memory.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// implements `GlobalAlloc` correctly; the counter is an atomic and never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let value = step();
    (value, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// A pinned macro and the allocations its four steps made when the budget
/// was recorded.  Each step may make 10 % more, rounded up.
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
        def: 20,
        gds: 27,
    },
    Budget {
        dims: (16, 1024, 2, 3),
        column: 1_822,
        generate: 15_550,
        def: 23,
        gds: 29,
    },
];

#[test]
fn layout_steps_stay_within_their_allocation_budgets() {
    let tech = Technology::s28();
    let library = CellLibrary::s28_default(&tech);
    let flow = LayoutFlow::new(&tech, &library);
    let mut over = Vec::new();
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
            let ceiling = recorded + recorded.div_ceil(10);
            eprintln!("{h}x{w} L{l} B{bits} {step}: {count} allocations (recorded {recorded}, ceiling {ceiling})");
            if count > ceiling {
                over.push(format!("{h}x{w} L{l} B{bits} {step}: {count} > {ceiling}"));
            }
        }
    }
    assert!(over.is_empty(), "over budget: {over:#?}");
}
