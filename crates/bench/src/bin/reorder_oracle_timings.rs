//! Fig.-4-style reordering wall-time table for the PR 2 kernels: each
//! production scheme kernel against its retained serial oracle, per large
//! instance, plus the paper-style performance profile over the production
//! times. The equality assert makes this double as an end-to-end check that
//! every kernel/oracle pair agrees on the whole suite.
//!
//! Output is committed as `results/reorder_parallel_timings.txt`.

#![forbid(unsafe_code)]

use reorderlab_bench::{render_profile, HarnessArgs, Table};
use reorderlab_core::schemes::{
    cdfs_order, cdfs_order_serial, rcm_order, rcm_order_serial, slashburn_order,
    slashburn_order_serial,
};
use reorderlab_core::PerformanceProfile;
use reorderlab_datasets::large_suite;
use reorderlab_graph::{Csr, Permutation};
use std::time::Instant;

type Kernel = fn(&Csr) -> Permutation;

fn timed(f: Kernel, g: &Csr) -> (Permutation, f64) {
    let t0 = Instant::now();
    let pi = f(g);
    (pi, t0.elapsed().as_secs_f64())
}

fn main() {
    let args = HarnessArgs::from_env(
        "Reordering wall time: production kernels vs retained serial oracles on the 9 large inputs",
    );
    let mut instances = large_suite();
    if args.quick {
        instances.truncate(3);
    }
    let pairs: Vec<(&str, Kernel, Kernel)> = vec![
        ("RCM", rcm_order, rcm_order_serial),
        ("CDFS", cdfs_order, cdfs_order_serial),
        ("SlashBurn", |g| slashburn_order(g, 0.005), |g| slashburn_order_serial(g, 0.005)),
    ];

    let names: Vec<String> = instances.iter().map(|i| i.name.to_string()).collect();
    let mut kernel_secs: Vec<Vec<f64>> = vec![vec![0.0; names.len()]; pairs.len()];
    let mut oracle_secs: Vec<Vec<f64>> = vec![vec![0.0; names.len()]; pairs.len()];

    for (i, spec) in instances.iter().enumerate() {
        let g = spec.generate();
        for (s, (name, kernel, oracle)) in pairs.iter().enumerate() {
            let (pi, secs) = timed(*kernel, &g);
            let (pi_oracle, oracle_s) = timed(*oracle, &g);
            assert_eq!(pi, pi_oracle, "{name} kernel diverged from oracle on {}", spec.name);
            kernel_secs[s][i] = secs;
            oracle_secs[s][i] = oracle_s;
        }
    }

    println!("=== Reordering wall time (seconds), kernel vs serial oracle ===\n");
    let mut table = Table::new(
        ["scheme", "variant"].iter().map(|s| s.to_string()).chain(names.iter().cloned()),
    );
    for (s, (name, _, _)) in pairs.iter().enumerate() {
        let mut kernel_row = vec![name.to_string(), "kernel".into()];
        kernel_row.extend(kernel_secs[s].iter().map(|v| format!("{v:.3}")));
        table.row(kernel_row);
        let mut oracle_row = vec![name.to_string(), "oracle".into()];
        oracle_row.extend(oracle_secs[s].iter().map(|v| format!("{v:.3}")));
        table.row(oracle_row);
    }
    println!("{}", table.render());

    println!("=== Geometric-mean speedup (oracle / kernel) ===\n");
    for (s, (name, _, _)) in pairs.iter().enumerate() {
        let log_sum: f64 = kernel_secs[s]
            .iter()
            .zip(&oracle_secs[s])
            .map(|(&k, &o)| (o.max(1e-9) / k.max(1e-9)).ln())
            .sum();
        println!("{name:<10} {:.2}x", (log_sum / names.len() as f64).exp());
    }

    let taus = [1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0];
    let scheme_names: Vec<String> = pairs.iter().map(|(n, _, _)| n.to_string()).collect();
    let profile =
        PerformanceProfile::try_new(&scheme_names, &kernel_secs, &taus).unwrap_or_else(|e| {
            eprintln!("reorder_oracle_timings: cannot build timing profile: {e}");
            std::process::exit(2);
        });
    println!("\n=== Fig.-4-style profile over kernel times: fraction within τ × fastest ===\n");
    println!("{}", render_profile(&profile));
}
