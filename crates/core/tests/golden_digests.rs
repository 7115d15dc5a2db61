//! Golden output pins for the kernels whose serial scan is the only body:
//! Rabbit's aggregation, SlashBurn's hub extraction, and the partitioner's
//! heavy-edge matching and k-way refinement (behind METIS and ND).
//!
//! Each digest was recorded before the speculative parallel batches these
//! kernels once had were retired, so the pins prove that retiring them
//! changed no output. The degenerate-suite, matching and refinement pins
//! are also checked at 1, 2 and 7 threads; the full-size scheme pins run
//! once, at the ambient thread count (`RAYON_NUM_THREADS`).

use reorderlab_core::Scheme;
use reorderlab_datasets::{by_name, degenerate_suite};
use reorderlab_graph::{assert_thread_invariant, Csr};
use reorderlab_partition::{heavy_edge_matching, kway_refine};

/// FNV-1a 64 over the little-endian bytes of `words`.
fn digest(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

fn instance(name: &str) -> Csr {
    by_name(name).unwrap_or_else(|| panic!("unknown instance {name}")).generate()
}

/// Asserts every `(label, expected)` pin against `actual(label)`, listing
/// all mismatches at once so a deliberate re-pin sees every new value.
fn check_pins(pins: &[(&str, u64)], actual: impl Fn(&str) -> u64) {
    let wrong: Vec<String> = pins
        .iter()
        .filter_map(|&(label, want)| {
            let got = actual(label);
            (got != want).then(|| format!("(\"{label}\", 0x{got:016X}), // pinned 0x{want:016X}"))
        })
        .collect();
    assert!(wrong.is_empty(), "golden digests moved:\n{}", wrong.join("\n"));
}

fn scheme_digest(spec: &str, g: &Csr) -> u64 {
    let scheme = Scheme::parse(spec).unwrap();
    match scheme.try_reorder(g) {
        Ok(pi) => digest(pi.ranks().iter().copied()),
        // Refusals are pinned too: the digest of the error message.
        Err(e) => digest(e.to_string().bytes().map(u32::from)),
    }
}

const LARGE_SCHEME_PINS: &[(&str, u64)] = &[
    ("ca_roadnet/rabbit", 0x3E17DF6AF3A7C8E0),
    ("ca_roadnet/metis", 0x5053CD0BE641B434),
    ("ca_roadnet/nd", 0x30D8B0B53704FD60),
    ("ca_roadnet/slashburn", 0xA333C1D6F870E5CC),
    ("hyves/rabbit", 0xA524808C25CC1D3D),
    ("hyves/metis", 0xCB2C76374874608D),
    ("hyves/nd", 0xBD874E7544B18F45),
    ("hyves/slashburn", 0x733DD367EAC944A9),
];

#[test]
fn scheme_permutations_on_large_instances_are_pinned() {
    check_pins(LARGE_SCHEME_PINS, |label| {
        let (graph, spec) = label.split_once('/').unwrap();
        scheme_digest(spec, &instance(graph))
    });
}

const DEGENERATE_SCHEME_PINS: &[(&str, u64)] = &[
    ("empty/rabbit", 0xCBF29CE484222325),
    ("empty/metis:parts=2", 0xE5D7034B380E7747),
    ("empty/nd", 0xCBF29CE484222325),
    ("empty/slashburn", 0xCBF29CE484222325),
    ("single_vertex/rabbit", 0x4D25767F9DCE13F5),
    ("single_vertex/metis:parts=2", 0x9351558B1B3C00C6),
    ("single_vertex/nd", 0x4D25767F9DCE13F5),
    ("single_vertex/slashburn", 0x4D25767F9DCE13F5),
    ("zero_edge_4/rabbit", 0x30D77E22C5DA0365),
    ("zero_edge_4/metis:parts=2", 0x6726D83826048E35),
    ("zero_edge_4/nd", 0x30D77E22C5DA0365),
    ("zero_edge_4/slashburn", 0xAFD799237A9390F5),
    ("zero_edge_33/rabbit", 0x6DBFDD340D212655),
    ("zero_edge_33/metis:parts=2", 0x24CEE145242EBA95),
    ("zero_edge_33/nd", 0xA3206EC7E60855A5),
    ("zero_edge_33/slashburn", 0xDFE7BDBE8AA0E955),
    ("single_edge/rabbit", 0x9F19854A6EADA506),
    ("single_edge/metis:parts=2", 0x9D19BB4BD820C026),
    ("single_edge/nd", 0x9D19BB4BD820C026),
    ("single_edge/slashburn", 0x756241E1BE8C9396),
    ("all_self_loops/rabbit", 0xEB29754B740C25F1),
    ("all_self_loops/metis:parts=2", 0x64F54850FE9309F1),
    ("all_self_loops/nd", 0xEB29754B740C25F1),
    ("all_self_loops/slashburn", 0xE774D3BE2B5F7371),
    ("disconnected_pairs/rabbit", 0xF7050138585B1265),
    ("disconnected_pairs/metis:parts=2", 0x47E035DB4F5D9465),
    ("disconnected_pairs/nd", 0xE554888727308865),
    ("disconnected_pairs/slashburn", 0x6D4B5B76F82B0415),
    ("two_components/rabbit", 0x8A7343A4A40A5CE2),
    ("two_components/metis:parts=2", 0xCBAD62AD1D57EB42),
    ("two_components/nd", 0xEFE50848D53F4C92),
    ("two_components/slashburn", 0x1A1B520E708E5472),
    ("star_9/rabbit", 0xEC449F96F087D47D),
    ("star_9/metis:parts=2", 0x8AA01C65FB0CB47D),
    ("star_9/nd", 0x14748A2F9EA44FFD),
    ("star_9/slashburn", 0x49B0D1DF1B13CB7D),
    ("duplicate_heavy/rabbit", 0x74F6E818DB7A2B22),
    ("duplicate_heavy/metis:parts=2", 0xAE7A689BC2E9F352),
    ("duplicate_heavy/nd", 0xAE7A689BC2E9F352),
    ("duplicate_heavy/slashburn", 0x3E1C548C17C50292),
];

#[test]
fn scheme_permutations_on_degenerate_suite_are_pinned() {
    let suite = degenerate_suite();
    check_pins(DEGENERATE_SCHEME_PINS, |label| {
        let (graph, spec) = label.split_once('/').unwrap();
        let case = suite.iter().find(|c| c.name == graph).unwrap();
        assert_thread_invariant(|| scheme_digest(spec, &case.graph))
    });
}

const MATCHING_PINS: &[(&str, u64)] = &[
    ("ca_roadnet/0", 0x0B8DF74C59D28104),
    ("ca_roadnet/42", 0xA66DB89A0DC0F9D5),
    ("hyves/7", 0x5EA764B46216FD91),
];

#[test]
fn heavy_edge_matching_is_pinned() {
    check_pins(MATCHING_PINS, |label| {
        let (graph, seed) = label.split_once('/').unwrap();
        let g = instance(graph);
        let seed: u64 = seed.parse().unwrap();
        let m = assert_thread_invariant(|| heavy_edge_matching(&g, seed));
        digest(m.assignment.iter().copied().chain([m.num_coarse as u32]))
    });
}

const KWAY_REFINE_PINS: &[(&str, u64)] =
    &[("ca_roadnet/32", 0x6FE6DC1B50485452), ("hyves/8", 0xBC2EE79C8A7CB327)];

#[test]
fn kway_refine_is_pinned() {
    check_pins(KWAY_REFINE_PINS, |label| {
        let (graph, k) = label.split_once('/').unwrap();
        let g = instance(graph);
        let k: u32 = k.parse().unwrap();
        let n = g.num_vertices();
        let vw = vec![1.0; n];
        let (assignment, moves) = assert_thread_invariant(|| {
            let mut a: Vec<u32> = (0..n as u32).map(|v| v % k).collect();
            let moves = kway_refine(&g, &mut a, k as usize, &vw, 0.05, 3);
            (a, moves)
        });
        digest(assignment.into_iter().chain([moves as u32]))
    });
}
