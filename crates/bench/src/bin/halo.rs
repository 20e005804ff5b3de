//! Halo-exchange sweep: two-sided isend/irecv vs neighborhood alltoall
//! vs one-sided put+fence, over shared memory and hybrid 2-/4-node
//! fabrics. Prints the table and the headline ratios; `quick` is the CI
//! gate.
//!
//! ```text
//! cargo run --release -p mpi-bench --bin halo [REPS | quick]
//! ```
//!
//! Defaults: 5 timed reps per cell (2 warm-up; every warm-up iteration
//! verifies the received halos against the sender rank stamps), payloads
//! 1 KiB – 1 MiB per neighbor, fabrics `shm` (4 ranks), `hybrid-2n`
//! (4 ranks on 2 nodes) and `hybrid-4n` (8 ranks on 4 nodes) with the
//! modelled gigabit inter-node link.
//!
//! `quick` runs the CI smoke: shm only, the ≥64 KiB payloads, and
//! asserts the headline property — one-sided put+fence stays within
//! 1.1× of the two-sided baseline. At those sizes both methods are
//! copy/bandwidth-bound and move identical bytes; the fence's marker
//! round is the only extra cost, so a miss means the RMA datapath grew
//! a real overhead (an extra copy, a serialization point), not noise.

use mpi_bench::halobench::{
    find_halo, format_halo_table, run_halo_suite, HaloBenchSpec, HaloFabric, HaloMethod,
};

fn main() {
    let first = std::env::args().nth(1);
    let quick = first.as_deref() == Some("quick");
    let spec = if quick {
        HaloBenchSpec {
            fabrics: vec![HaloFabric::shm(4)],
            methods: vec![HaloMethod::TwoSided, HaloMethod::RmaFence],
            payloads: vec![64 * 1024, 256 * 1024],
            reps: 10,
            warmup: 3,
        }
    } else {
        HaloBenchSpec {
            reps: first.and_then(|a| a.parse().ok()).unwrap_or(5),
            ..HaloBenchSpec::default()
        }
    };

    eprintln!(
        "halo sweep: {} fabrics, {} methods, payloads {:?}",
        spec.fabrics.len(),
        spec.methods.len(),
        spec.payloads
    );
    let records = run_halo_suite(&spec, |r| {
        eprintln!(
            "  {:>18} {:>10} {:>10}B -> {:>10.2} us",
            r.method, r.fabric, r.payload_bytes, r.us_per_iter
        );
    });

    println!("{}", format_halo_table(&records));

    if !quick {
        // Headline reading: one-sided and neighborhood against the
        // two-sided baseline, per fabric, at the bandwidth-bound end.
        for fabric in ["shm", "hybrid-2n", "hybrid-4n"] {
            println!("\n== {fabric} — vs the two-sided baseline ==");
            for &payload in spec.payloads.iter().filter(|&&p| p >= 64 * 1024) {
                if let Some(two) = find_halo(&records, "two-sided", fabric, payload) {
                    for method in ["neighbor-alltoall", "rma-fence"] {
                        if let Some(us) = find_halo(&records, method, fabric, payload) {
                            println!(
                                "  {payload:>8}B: {method:>18} {us:>9.1} us vs {two:>9.1} us ({}{:.2}x)",
                                if two >= us { "+" } else { "-" },
                                two / us
                            );
                        }
                    }
                }
            }
        }
        return;
    }

    // CI gate: put+fence within 1.1x of two-sided at >= 64 KiB on shm.
    for &payload in &spec.payloads {
        let two = find_halo(&records, "two-sided", "shm", payload)
            .expect("two-sided cell missing from the quick sweep");
        let rma = find_halo(&records, "rma-fence", "shm", payload)
            .expect("rma-fence cell missing from the quick sweep");
        let ratio = rma / two;
        println!("quick gate {payload:>8}B: rma-fence / two-sided = {ratio:.3}");
        assert!(
            ratio <= 1.1,
            "rma-fence halo regressed at {payload}B: {rma:.1} us vs two-sided {two:.1} us \
             ({ratio:.2}x > 1.10x)"
        );
    }
    println!("quick gate passed: rma-fence within 1.1x of two-sided at every swept payload");
}
