//! Golden output pins for IMM and its reverse-reachability sampler.
//!
//! Every pin was recorded before the sampler and the selection step were
//! reworked for speed, so they prove the rework changed no result: seeds,
//! the influence estimate to the bit, the RR-set count and both traversal
//! counters, on flat and compressed adjacency alike. The IMM pins run at
//! the ambient thread count (`RAYON_NUM_THREADS`), so a thread matrix over
//! this suite also re-proves thread invariance.

use reorderlab_datasets::{barabasi_albert, star, tri_mesh};
use reorderlab_graph::{CompressedCsr, Csr, GraphBuilder};
use reorderlab_influence::{
    imm, imm_compressed, DiffusionModel, ImmConfig, ImmResult, RrSampler, SampleKernel,
    SampleScratch,
};

/// FNV-1a 64 over the little-endian bytes of `words`.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// The pinned graphs: a supercritical preferential-attachment graph under
/// IC p = 0.25 (RR sets reach a large share of it), a triangle mesh, a star
/// and a directed ring with chords (its transpose differs from it).
fn graph(name: &str) -> Csr {
    match name {
        "ba" => barabasi_albert(2000, 4, 7),
        "mesh" => tri_mesh(30, 30, 0.1, 3),
        "star" => star(300),
        "ring" => {
            let n = 400u32;
            let mut b = GraphBuilder::directed(400);
            for v in 0..n {
                b = b.edge(v, (v + 1) % n).edge(v, (v + 7) % n);
            }
            b.build().expect("valid ring")
        }
        _ => panic!("unknown graph {name}"),
    }
}

fn model(name: &str) -> DiffusionModel {
    match name {
        "ic" => DiffusionModel::IndependentCascade { probability: 0.25 },
        "wc" => DiffusionModel::WeightedCascade,
        "lt" => DiffusionModel::LinearThreshold,
        _ => panic!("unknown model {name}"),
    }
}

/// One IMM outcome: the seed digest, the influence estimate's bits, the
/// RR-set count, in-edges examined and vertices visited.
type Pin = (u64, u64, usize, u64, u64);

fn pin_of(r: &ImmResult) -> Pin {
    (
        digest(r.seeds.iter().map(|&s| u64::from(s))),
        r.influence_estimate.to_bits(),
        r.stats.rr_sets,
        r.stats.edges_examined,
        r.stats.vertices_visited,
    )
}

fn show((seeds, influence, rr_sets, edges, visited): Pin) -> String {
    format!("(0x{seeds:016X}, 0x{influence:016X}, {rr_sets}, {edges}, {visited})")
}

const IMM_PINS: &[(&str, Pin)] = &[
    ("ba/ic", (0x26EF5D9815A8EF36, 0x4097A76276276276, 325, 3172819, 353781)),
    ("ba/wc", (0x06D26537649A88A3, 0x4075E22E09C402CA, 1468, 218372, 11757)),
    ("ba/lt", (0x06D26537649A88A3, 0x407F2981CCA7F290, 1067, 9237, 9237)),
    ("mesh/ic", (0x453D8F5C1F4C2F67, 0x4057AC5C2554B40A, 2167, 189198, 32183)),
    ("mesh/wc", (0xAD27AB5E3853EBFA, 0x403A1BE86BE6D2AD, 7687, 189566, 32538)),
    ("mesh/lt", (0x61DF36D2EF778F5E, 0x40405F01676DFB52, 5470, 27466, 27466)),
    ("star/ic", (0x5D3868C58390F358, 0x40541364D9364D93, 792, 72979, 15465)),
    ("star/wc", (0xA8C7F832281A39C5, 0x4072C00000000000, 198, 59586, 582)),
    ("star/lt", (0xA8C7F832281A39C5, 0x4072C00000000000, 198, 593, 593)),
    ("ring/ic", (0xBE8385638861F518, 0x40263DB4B5CB40F5, 7086, 27566, 13783)),
    ("ring/wc", (0xC6C7153547AEA9DC, 0x404B4B064CBE2382, 1341, 27534, 13767)),
    ("ring/lt", (0xC203BA24ED13339B, 0x4077084BDA12F685, 216, 22484, 22484)),
];

#[test]
fn imm_results_are_pinned_on_flat_and_compressed_adjacency() {
    let mut wrong = Vec::new();
    for &(label, want) in IMM_PINS {
        let (g, m) = label.split_once('/').expect("label is graph/model");
        let g = graph(g);
        let cz = CompressedCsr::from_csr(&g).expect("compressible");
        let cfg = ImmConfig::new(4).epsilon(0.9).model(model(m)).seed(5);
        let flat = pin_of(&imm(&g, &cfg));
        let packed = pin_of(&imm_compressed(&cz, &cfg).expect("compressed imm"));
        for (form, got) in [("flat", flat), ("compressed", packed)] {
            if got != want {
                wrong.push(format!(
                    "(\"{label}\", {}), // {form}, pinned {}",
                    show(got),
                    show(want)
                ));
            }
        }
    }
    assert!(wrong.is_empty(), "golden IMM pins moved:\n{}", wrong.join("\n"));
}

/// Digest of the first 200 RR sets (every vertex in push order, then the
/// set length and both trace counters) drawn through one reused scratch.
fn sample_digest(sampler: &RrSampler, n: usize) -> u64 {
    let mut scratch = SampleScratch::new(n);
    let mut words = Vec::new();
    for i in 0..200 {
        let (set, trace) = sampler.sample_with(17, i, &mut scratch);
        words.extend(set.iter().map(|&v| u64::from(v)));
        words.extend([set.len() as u64, trace.edges_examined, trace.vertices_visited]);
    }
    digest(words)
}

const SAMPLE_PINS: &[(&str, u64)] = &[
    ("ba/ic", 0xBC63415E60F2BCD6),
    ("ba/wc", 0x58EEF93735763A19),
    ("ba/lt", 0xCAA644A27A05BB24),
    ("mesh/ic", 0x28C29DED4F1A7DBE),
    ("mesh/wc", 0x54CDD0B16BB0E5FA),
    ("mesh/lt", 0x1CC0392B9FE9CA3F),
    ("star/ic", 0xA732583AAE73C33F),
    ("star/wc", 0x6E482D3C0648C31A),
    ("star/lt", 0x483AB013A7E7CEE4),
    ("ring/ic", 0x8EF3CF8620E19048),
    ("ring/wc", 0x1BB0E77AD670A69E),
    ("ring/lt", 0x513724198905E3C8),
];

#[test]
fn first_rr_sets_are_pinned_for_every_kernel_and_form() {
    let mut wrong = Vec::new();
    for &(label, want) in SAMPLE_PINS {
        let (g, m) = label.split_once('/').expect("label is graph/model");
        let g = graph(g);
        let n = g.num_vertices();
        let cz = CompressedCsr::from_csr(&g).expect("compressible");
        for kernel in SampleKernel::ALL {
            let flat = RrSampler::with_kernel(&g, model(m), kernel);
            let packed =
                RrSampler::with_kernel_compressed(&cz, model(m), kernel).expect("compressed");
            for (form, sampler) in [("flat", flat), ("compressed", packed)] {
                let got = sample_digest(&sampler, n);
                if got != want {
                    let k = kernel.name();
                    wrong.push(format!(
                        "(\"{label}\", 0x{got:016X}), // {form}/{k}, pinned 0x{want:016X}"
                    ));
                }
            }
        }
    }
    assert!(wrong.is_empty(), "golden RR-set digests moved:\n{}", wrong.join("\n"));
}
