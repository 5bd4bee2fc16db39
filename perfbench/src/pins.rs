//! Pinned outputs: the frontier and emitted-byte digests of every request
//! in the workload catalogues, and the hypervolume reference points.
//!
//! The tables live in `pinned.rs`, which `--print-pins` regenerates:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --print-pins > perfbench/src/pinned.rs
//! cargo fmt --manifest-path perfbench/Cargo.toml
//! ```
//!
//! Regenerate only when a change is meant to alter frontiers or bytes.

use std::collections::HashMap;
use std::fmt::Write as _;

use easyacim::service::{ExplorationService, SessionArchive};

use crate::checks;
use crate::common::{SizedRequest, SEEDS, SIZES_KB};
use crate::service_mix::{self, Kind, MixRequest};
use crate::{explore_paper, flow_backend};

mod pinned {
    include!("pinned.rs");
}

pub fn flow_backend(request: SizedRequest) -> Option<(u64, u64)> {
    pinned::FLOW_BACKEND
        .iter()
        .find(|(kb, seed, _, _)| *kb == request.kb && *seed == request.seed)
        .map(|&(_, _, frontier, emit)| (frontier, emit))
}

pub fn explore_paper(request: SizedRequest) -> Option<u64> {
    pinned::EXPLORE_PAPER
        .iter()
        .find(|(kb, seed, _)| *kb == request.kb && *seed == request.seed)
        .map(|&(_, _, digest)| digest)
}

/// The hypervolume reference point of macro frontiers of one array size,
/// shared by `flow_backend` and `explore_paper`.
pub fn macro_reference(kb: usize) -> Option<[f64; 4]> {
    pinned::MACRO_REFERENCE
        .iter()
        .find(|(k, _)| *k == kb)
        .map(|&(_, r)| r)
}

pub fn service_mix(request: MixRequest) -> Option<u64> {
    pinned::SERVICE_MIX
        .iter()
        .find(|(kind, seed, from, _)| {
            *kind == request.kind.name() && *seed == request.seed && *from == request.warm_from
        })
        .map(|&(_, _, _, digest)| digest)
}

pub fn service_mix_reference(kind: Kind) -> Option<[f64; 4]> {
    pinned::SERVICE_MIX_REFERENCE
        .iter()
        .find(|(name, _)| *name == kind.name())
        .map(|&(_, reference)| reference)
}

fn reference_row(key: &str, reference: [f64; 4]) -> String {
    format!(
        "    ({key}, [{:?}, {:?}, {:?}, {:?}]),\n",
        reference[0], reference[1], reference[2], reference[3]
    )
}

/// Runs every catalogue request once and returns the source of
/// `pinned.rs`.
pub fn generate() -> Result<String, String> {
    let mut out = String::from(
        "// Generated by `perfbench --print-pins`; see `pins.rs`.\n\n\
         /// (array kb, NSGA-II seed, frontier digest, SPICE+DEF+GDS digest).\n\
         pub const FLOW_BACKEND: &[(usize, u64, u64, u64)] = &[\n",
    );
    // Cold macro fronts of both macro workloads, per array size.
    let mut macro_fronts: HashMap<usize, Vec<Vec<Vec<f64>>>> = HashMap::new();
    for kb in SIZES_KB {
        for seed in SEEDS {
            let started = std::time::Instant::now();
            let (outputs, _) = flow_backend::run(SizedRequest { kb, seed })?;
            eprintln!("flow_backend {kb} kb seed {seed}: {:?}", started.elapsed());
            let _ = writeln!(
                out,
                "    ({kb}, {seed}, 0x{:016x}, 0x{:016x}),",
                outputs.frontier_digest, outputs.emit_digest
            );
            let front = checks::macro_hv_front(&outputs.distilled);
            macro_fronts.entry(kb).or_default().push(front);
        }
    }
    out += "];\n\n/// (array kb, NSGA-II seed, frontier digest).\n\
            pub const EXPLORE_PAPER: &[(usize, u64, u64)] = &[\n";
    for kb in SIZES_KB {
        for seed in SEEDS {
            let started = std::time::Instant::now();
            let (distilled, _) = explore_paper::run(SizedRequest { kb, seed })?;
            eprintln!("explore_paper {kb} kb seed {seed}: {:?}", started.elapsed());
            let digest = checks::macro_frontier_digest(&distilled);
            let _ = writeln!(out, "    ({kb}, {seed}, 0x{digest:016x}),");
            let front = checks::macro_hv_front(&distilled);
            macro_fronts.entry(kb).or_default().push(front);
        }
    }
    out += "];\n\n/// Hypervolume reference point per array size (kb), over the cold\n\
            /// fronts of `flow_backend` and `explore_paper`.\n\
            pub const MACRO_REFERENCE: &[(usize, [f64; 4])] = &[\n";
    for kb in SIZES_KB {
        out += &reference_row(&kb.to_string(), checks::nadir_reference(&macro_fronts[&kb]));
    }
    out += "];\n\n/// (kind, NSGA-II seed, warm-start source seed, frontier digest).\n\
            pub const SERVICE_MIX: &[(&str, u64, Option<u64>, u64)] = &[\n";
    let mut references = String::new();
    let service = ExplorationService::new();
    for kind in Kind::ALL {
        let mut fronts = Vec::new();
        let mut sessions: HashMap<u64, SessionArchive> = HashMap::new();
        for seed in SEEDS {
            let request = MixRequest {
                kind,
                seed,
                warm_from: None,
            };
            let started = std::time::Instant::now();
            let response = service
                .run(service_mix::build(request, None))
                .map_err(|e| e.to_string())?;
            eprintln!(
                "service_mix {} seed {seed}: {:?}",
                kind.name(),
                started.elapsed()
            );
            let checked = service_mix::check_response(&response)?;
            let _ = writeln!(
                out,
                "    (\"{}\", {seed}, None, 0x{:016x}),",
                kind.name(),
                checked.digest
            );
            fronts.push(checked.hv_front);
            sessions.insert(seed, response.session().clone());
        }
        for seed in SEEDS {
            for from in SEEDS {
                let request = MixRequest {
                    kind,
                    seed,
                    warm_from: Some(from),
                };
                let response = service
                    .run(service_mix::build(request, Some(sessions[&from].clone())))
                    .map_err(|e| e.to_string())?;
                let checked = service_mix::check_response(&response)?;
                let _ = writeln!(
                    out,
                    "    (\"{}\", {seed}, Some({from}), 0x{:016x}),",
                    kind.name(),
                    checked.digest
                );
            }
        }
        references += &reference_row(
            &format!("\"{}\"", kind.name()),
            checks::nadir_reference(&fronts),
        );
    }
    service.shutdown();
    out += "];\n\npub const SERVICE_MIX_REFERENCE: &[(&str, [f64; 4])] = &[\n";
    out += &references;
    out += "];\n";
    Ok(out)
}
