//! Criterion micro-benchmarks over the reproduction's hot paths: the
//! simulation kernel, tag embedding, frame compression, the per-frame pixel
//! kernels (each beside its `*_reference` seed implementation, timed in the
//! same run), neural-network inference and a full pipeline second.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use pictor_apps::{AppId, HumanPolicy, World};
use pictor_bench::fixtures::{conv_d_out, conv_fixture, lstm_d_h, lstm_fixture};
use pictor_client::ic::{IcTrainConfig, IntelligentClient};
use pictor_client::vision::{cell_std, cell_std_reference, GRID_H, GRID_W};
use pictor_gfx::{
    draw_scene_into, draw_scene_into_reference, embed_tag, extract_tag, CompressionModel, Frame,
    SceneObject, Tag,
};
use pictor_ml::Scratch;
use pictor_render::{CloudSystem, HumanDriver, SystemConfig};
use pictor_sim::{EventQueue, SeedTree, SimDuration, SimTime};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_schedule_pop_10k", |b| {
        b.iter(|| {
            let mut q: EventQueue<u64> = EventQueue::new();
            for i in 0..10_000u64 {
                q.schedule(SimTime::from_nanos((i * 7919) % 1_000_000), i);
            }
            let mut sum = 0u64;
            while let Some((_, v)) = q.pop() {
                sum = sum.wrapping_add(v);
            }
            sum
        });
    });
}

fn bench_tag_embedding(c: &mut Criterion) {
    let mut world = World::new(AppId::Dota2, SeedTree::new(1).stream("w"));
    world.advance(1.0);
    let frame = world.render();
    c.bench_function("tag_embed_extract_restore", |b| {
        b.iter_batched(
            || frame.clone(),
            |mut f| {
                let saved = embed_tag(&mut f, Tag(0xABCD));
                let tag = extract_tag(&f);
                pictor_gfx::restore_pixels(&mut f, &saved);
                tag
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_compression(c: &mut Criterion) {
    let mut world = World::new(AppId::SuperTuxKart, SeedTree::new(2).stream("w"));
    world.advance(1.0);
    let prev = world.render();
    world.advance(1.0 / 30.0);
    let next = world.render();
    let model = CompressionModel::tight_encoding();
    c.bench_function("compress_frame_delta", |b| {
        b.iter(|| model.compress(&next, Some(&prev)));
    });
}

/// A mid-game SuperTuxKart scene as the rasterizer sees it, plus two
/// consecutive rendered frames of it.
fn pixel_fixture() -> (Vec<SceneObject>, Frame, Frame) {
    let mut world = World::new(AppId::SuperTuxKart, SeedTree::new(7).stream("w"));
    world.advance(1.0);
    let prev = world.render();
    world.advance(1.0 / 30.0);
    let next = world.render();
    let objects = world
        .ground_truth()
        .iter()
        .enumerate()
        .map(|(i, d)| SceneObject::new(d.class, d.x, d.y, d.size, 0.37 * i as f64))
        .collect();
    (objects, prev, next)
}

fn bench_pixel_kernels(c: &mut Criterion) {
    let (objects, prev, next) = pixel_fixture();
    let mut out = Frame::new(0);
    c.bench_function("raster_draw_scene", |b| {
        b.iter(|| draw_scene_into(&mut out, &objects, 0.31, 0.62));
    });
    c.bench_function("raster_draw_scene_reference", |b| {
        b.iter(|| draw_scene_into_reference(&mut out, &objects, 0.31, 0.62));
    });
    c.bench_function("frame_entropy", |b| b.iter(|| next.entropy()));
    c.bench_function("frame_entropy_reference", |b| {
        b.iter(|| next.entropy_reference())
    });
    c.bench_function("frame_diff_fraction", |b| {
        b.iter(|| next.diff_fraction(&prev))
    });
    c.bench_function("frame_diff_fraction_reference", |b| {
        b.iter(|| next.diff_fraction_reference(&prev))
    });
    // The variance gate over every cell of the frame, as `detect` runs it.
    let all_cells = |f: fn(&Frame, usize, usize) -> f64| {
        let mut acc = 0.0;
        for cy in 0..GRID_H {
            for cx in 0..GRID_W {
                acc += f(&next, cx, cy);
            }
        }
        acc
    };
    c.bench_function("vision_cell_std", |b| b.iter(|| all_cells(cell_std)));
    c.bench_function("vision_cell_std_reference", |b| {
        b.iter(|| all_cells(cell_std_reference))
    });
}

fn bench_world_step(c: &mut Criterion) {
    c.bench_function("world_advance_and_render", |b| {
        b.iter_batched(
            || World::new(AppId::Dota2, SeedTree::new(3).stream("w")),
            |mut w| {
                for _ in 0..30 {
                    w.advance(1.0 / 30.0);
                }
                w.render()
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_human_policy(c: &mut Criterion) {
    let mut world = World::new(AppId::RedEclipse, SeedTree::new(4).stream("w"));
    for _ in 0..60 {
        world.advance(0.1);
    }
    let truth = world.ground_truth();
    c.bench_function("human_policy_decide", |b| {
        let mut policy = HumanPolicy::new(AppId::RedEclipse, SeedTree::new(4).stream("h"));
        b.iter(|| policy.decide(&truth));
    });
}

fn bench_conv_forward(c: &mut Criterion) {
    let (conv, x) = conv_fixture();
    let mut ws = Scratch::new();
    c.bench_function("conv_forward_cells_b32", |b| {
        b.iter(|| conv.infer(&x, &mut ws));
    });
    c.bench_function("conv_forward_cells_b32_reference", |b| {
        b.iter(|| conv.infer_reference(&x));
    });
}

fn bench_conv_backward(c: &mut Criterion) {
    let (mut conv, x) = conv_fixture();
    let mut ws = Scratch::new();
    let d_out = conv_d_out();
    c.bench_function("conv_train_step_b32", |b| {
        b.iter(|| {
            let y = conv.forward(&x, &mut ws);
            let dx = conv.backward(&d_out, &mut ws);
            (y.data()[0], dx.data()[0])
        });
    });
}

fn bench_lstm_seq(c: &mut Criterion) {
    let (mut lstm, xs) = lstm_fixture();
    let mut ws = Scratch::new();
    c.bench_function("lstm_infer_seq_t6_b16", |b| {
        b.iter(|| lstm.infer(&xs, &mut ws));
    });
    c.bench_function("lstm_infer_seq_t6_b16_reference", |b| {
        b.iter(|| lstm.infer_reference(&xs));
    });
    let d_h = lstm_d_h();
    c.bench_function("lstm_train_seq_t6_b16", |b| {
        b.iter(|| {
            let h = lstm.forward(&xs, &mut ws);
            let dxs = lstm.backward(&d_h, &mut ws);
            (h.data()[0], dxs[0].data()[0])
        });
    });
}

fn bench_ic_inference(c: &mut Criterion) {
    let seeds = SeedTree::new(5);
    let mut ic = IntelligentClient::train(AppId::RedEclipse, &seeds, IcTrainConfig::fast());
    let mut world = World::new(AppId::RedEclipse, seeds.stream("w"));
    world.advance(2.0);
    let frame = world.render();
    c.bench_function("ic_decide_full_frame", |b| {
        b.iter(|| ic.decide(&frame));
    });
}

fn bench_pipeline_second(c: &mut Criterion) {
    c.bench_function("pipeline_one_simulated_second", |b| {
        b.iter_batched(
            || {
                let seeds = SeedTree::new(6);
                let mut sys = CloudSystem::new(SystemConfig::turbovnc_stock(), seeds);
                sys.add_instance(
                    AppId::Dota2,
                    Box::new(HumanDriver::new(
                        HumanPolicy::new(AppId::Dota2, seeds.stream("h")),
                        seeds.stream("attn"),
                    )),
                );
                sys.start();
                sys
            },
            |mut sys| {
                sys.run_for(SimDuration::from_secs(1));
                sys.now()
            },
            BatchSize::SmallInput,
        );
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_event_queue, bench_tag_embedding, bench_compression,
              bench_world_step, bench_human_policy, bench_conv_forward,
              bench_conv_backward, bench_lstm_seq, bench_ic_inference,
              bench_pipeline_second
}
// The pixel kernels take microseconds, so take more samples per row.
criterion_group! {
    name = pixel_benches;
    config = Criterion::default().sample_size(501);
    targets = bench_pixel_kernels
}
criterion_main!(benches, pixel_benches);
