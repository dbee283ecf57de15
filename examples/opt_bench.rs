//! A/B micro-benchmark of the interpreter's two evaluators: runs the same
//! programs on the tree-walker alone (`optimize: false`) and with the
//! `interp::opt` pass compiling their loop bodies into register-code
//! blocks, printing host wall-clock and host-ns per charged virtual ns
//! for each. The makespans (virtual times) are asserted identical — the
//! pass is unobservable except to your watch.
//!
//! ```text
//! cargo run --release --example opt_bench
//! ```

use clustersim::NetworkModel;
use interp::{run_program_opts, Options};
use std::time::Instant;

fn bench(label: &str, src: &str) {
    let program = fir::parse(src).unwrap();
    let model = NetworkModel::mpich_gm();
    let mut times = [0.0f64; 2];
    let mut makespans = [clustersim::SimTime::ZERO; 2];
    // Two rounds; the first warms caches, the second is reported.
    for round in 0..2 {
        for (i, optimize) in [false, true].into_iter().enumerate() {
            let opts = Options {
                optimize,
                ..Default::default()
            };
            let t0 = Instant::now();
            let r = run_program_opts(&program, 1, &model, &opts).unwrap();
            let dt = t0.elapsed().as_secs_f64();
            if round == 1 {
                times[i] = dt;
                makespans[i] = r.report.makespan();
            }
            std::hint::black_box(r);
        }
    }
    assert_eq!(makespans[0], makespans[1], "virtual times must not move");
    // These programs do nothing but compute, so the makespan is the
    // virtual compute charged (1 ns per expression node, 2 per statement).
    let vns = makespans[0].as_ns() as f64;
    println!(
        "{label:24} walk {:8.1} ms ({:5.2} ns/vns)  blocks {:8.1} ms ({:5.2} ns/vns)  ({:.2}x)  makespan {}",
        times[0] * 1e3,
        times[0] * 1e9 / vns,
        times[1] * 1e3,
        times[1] * 1e9 / vns,
        times[0] / times[1],
        makespans[0],
    );
}

fn main() {
    bench(
        "scalar accumulate",
        "program main\n  real :: a(1)\n  do i = 1, 4000000\n    t = t + 1.0\n  end do\n  a(1) = t\nend program",
    );
    bench(
        "sum of 16 terms",
        "program main\n  real :: a(1)\n  do i = 1, 4000000\n    t = i+i+i+i+i+i+i+i+i+i+i+i+i+i+i+i\n  end do\n  a(1) = t\nend program",
    );
    bench(
        "array stores",
        "program main\n  real :: a(4000000)\n  do i = 1, 4000000\n    a(i) = i * 0.5\n  end do\nend program",
    );
    bench(
        "direct2d-shaped nest",
        "program main\n  real :: as(4096, 8), ar(4096, 8)\n  do iy = 1, 4\n    do ix = 1, 4096\n      do iz = 1, 8\n        t = 0.0\n        do iw = 1, 3\n          t = t + ix * iw + iz + iy\n        end do\n        as(ix, iz) = t * 0.5 + ix\n      end do\n    end do\n  end do\nend program",
    );
    // What the value numbering in `interp::reg` is for: `iz` and `iw`
    // unroll, so one `ix` iteration loads `c(ix)` 24 times and multiplies
    // it by 0.001 sixteen times in the source, once each in the block.
    bench(
        "adi-shaped repeats",
        "program main\n  real :: u(4096, 8), c(4096)\n  do i = 1, 4096\n    c(i) = i * 0.01\n  end do\n  do it = 1, 8\n    do ix = 1, 4096\n      do iz = 1, 8\n        t = c(ix) * 0.5 + u(ix, iz) * 0.25 + iz\n        do iw = 1, 2\n          t = t + c(ix) * 0.001 * iw\n        end do\n        u(ix, iz) = t\n      end do\n    end do\n  end do\nend program",
    );
}
