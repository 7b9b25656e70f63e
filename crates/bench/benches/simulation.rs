//! Criterion benchmarks of the functional (table-driven) and performance
//! simulators.

use std::collections::HashMap;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hexcute_arch::{DType, GpuArch};
use hexcute_core::Compiler;
use hexcute_ir::KernelBuilder;
use hexcute_kernels::gemm::{fp16_gemm, GemmConfig, GemmShape};
use hexcute_layout::Layout;
use hexcute_sim::{estimate_kernel, FunctionalSim};

fn small_gemm_program() -> hexcute_ir::Program {
    let (m, n, k) = (64usize, 64usize, 64usize);
    let mut kb = KernelBuilder::new("bench_gemm", 128);
    let ga = kb.global_view(
        "a",
        DType::F16,
        Layout::from_flat(&[m, k], &[k, 1]),
        &[m, k],
    );
    let gb = kb.global_view(
        "b",
        DType::F16,
        Layout::from_flat(&[n, k], &[k, 1]),
        &[n, k],
    );
    let gc = kb.global_view(
        "c",
        DType::F32,
        Layout::from_flat(&[m, n], &[n, 1]),
        &[m, n],
    );
    let sa = kb.shared_tensor("sa", DType::F16, &[m, k]);
    let sb = kb.shared_tensor("sb", DType::F16, &[n, k]);
    let ra = kb.register_tensor("ra", DType::F16, &[m, k]);
    let rb = kb.register_tensor("rb", DType::F16, &[n, k]);
    let rc = kb.register_tensor("rc", DType::F32, &[m, n]);
    kb.fill(rc, 0.0);
    kb.copy(ga, sa);
    kb.copy(gb, sb);
    kb.copy(sa, ra);
    kb.copy(sb, rb);
    kb.gemm(rc, ra, rb);
    kb.copy(rc, gc);
    kb.build().unwrap()
}

fn bench_simulation(c: &mut Criterion) {
    let arch = GpuArch::a100();
    let program = small_gemm_program();
    let compiled = Compiler::new(arch.clone()).compile(&program).unwrap();

    c.bench_function("sim/functional_gemm_64x64x64", |b| {
        let mut inputs = HashMap::new();
        inputs.insert("a".to_string(), vec![0.5f32; 64 * 64]);
        inputs.insert("b".to_string(), vec![0.25f32; 64 * 64]);
        let sim = FunctionalSim::new(&compiled.program, &compiled.candidate);
        b.iter(|| sim.run(black_box(&inputs)).unwrap())
    });

    let big = fp16_gemm(GemmShape::new(8192, 8192, 8192), GemmConfig::default()).unwrap();
    let big_compiled = Compiler::new(arch.clone()).compile(&big).unwrap();
    c.bench_function("sim/perf_estimate_gemm_8192", |b| {
        b.iter(|| {
            estimate_kernel(
                black_box(&big_compiled.program),
                &big_compiled.candidate,
                &arch,
            )
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_simulation
}
criterion_main!(benches);
