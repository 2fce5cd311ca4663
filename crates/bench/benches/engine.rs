//! Microbenchmarks of the simulator's hot components: the SPT untaint
//! engine's per-cycle step, rename-time tainting, the TAGE predictor and
//! the cache hierarchy. These measure the *simulator* (host-side cost),
//! complementing the `paper` sweep which measures the *simulated machine*
//! (guest-side cycles).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use spt_core::engine::RenameInfo;
use spt_core::{Config, TaintEngine, ThreatModel};
use spt_frontend::{Ghr, Tage};
use spt_isa::{InstClass, OperandRole};
use spt_mem::MemSystem;

/// A full engine with a mixed 128-instruction window: pointer-style loads
/// feeding ALU chains, with one declassification pending.
fn loaded_engine(cfg: Config) -> TaintEngine {
    let mut e = TaintEngine::new(cfg, 320);
    for k in 0..64u64 {
        let base = (k * 4) as u32;
        e.rename(RenameInfo {
            seq: 4 * k + 1,
            class: InstClass::Load,
            srcs: [Some((base, OperandRole::Address)), None, None],
            dest: Some(base + 1),
            load_bytes: Some(8),
        });
        e.rename(RenameInfo {
            seq: 4 * k + 2,
            class: InstClass::Invertible2,
            srcs: [Some((base + 1, OperandRole::Data)), Some((0, OperandRole::Data)), None],
            dest: Some(base + 2),
            load_bytes: None,
        });
        e.rename(RenameInfo {
            seq: 4 * k + 3,
            class: InstClass::Lossy,
            srcs: [Some((base + 2, OperandRole::Data)), Some((base + 1, OperandRole::Data)), None],
            dest: Some(base + 3),
            load_bytes: None,
        });
        e.declassify_vp(4 * k + 1);
    }
    e
}

fn bench_engine_step(c: &mut Criterion) {
    let mut g = c.benchmark_group("taint_engine");
    for (name, cfg) in [
        ("step_bwd_width3", Config::spt_full(ThreatModel::Futuristic)),
        ("step_ideal", Config::spt_ideal(ThreatModel::Futuristic)),
    ] {
        g.bench_function(name, |b| {
            b.iter_batched(
                || loaded_engine(cfg),
                |mut e| {
                    for _ in 0..16 {
                        criterion::black_box(e.step());
                    }
                    e
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.bench_function("rename", |b| {
        let mut e = TaintEngine::new(Config::spt_full(ThreatModel::Futuristic), 320);
        let mut seq = 1u64;
        b.iter(|| {
            e.rename(RenameInfo {
                seq,
                class: InstClass::Invertible2,
                srcs: [
                    Some(((seq % 300) as u32, OperandRole::Data)),
                    Some((((seq + 7) % 300) as u32, OperandRole::Data)),
                    None,
                ],
                dest: Some(((seq + 13) % 300) as u32),
                load_bytes: None,
            });
            e.retire(seq);
            seq += 1;
        })
    });
    g.finish();
}

fn bench_tage(c: &mut Criterion) {
    let mut g = c.benchmark_group("frontend");
    g.bench_function("tage_predict_update", |b| {
        let mut tage = Tage::new();
        let mut ghr = Ghr::new();
        let mut i = 0u64;
        b.iter(|| {
            let taken = (i / 3).is_multiple_of(2);
            let (pred, info) = tage.predict(0x40 + (i % 16), &ghr);
            tage.update(0x40 + (i % 16), &info, taken);
            ghr.push(taken);
            i += 1;
            criterion::black_box(pred)
        })
    });
    g.finish();
}

fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("memory");
    g.bench_function("l1_hit", |b| {
        let mut m = MemSystem::default();
        m.read_timed(0x1000, 8, 0).unwrap();
        let mut now = 100u64;
        b.iter(|| {
            now += 4;
            criterion::black_box(m.read_timed(0x1000, 8, now).unwrap())
        })
    });
    g.bench_function("streaming_misses", |b| {
        let mut m = MemSystem::default();
        let mut addr = 0u64;
        let mut now = 0u64;
        b.iter(|| {
            addr += 64;
            now += 200;
            criterion::black_box(m.read_timed(addr, 8, now).unwrap())
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_engine_step, bench_tage, bench_cache
}
criterion_main!(benches);
