//! Criterion micro-benchmarks of the core machinery: PAG construction
//! and serialization, graph algorithms, pass execution, and end-to-end
//! profiling throughput. These back the efficiency claims (low-overhead
//! collection, cheap graph analysis) with numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pag::{EdgeLabel, Pag, VertexId, VertexLabel, ViewKind};
use simrt::RunConfig;

/// Synthetic layered DAG: `layers × width` vertices, each connected to
/// two vertices of the next layer.
fn layered_dag(layers: usize, width: usize) -> Pag {
    let mut g = Pag::with_capacity(ViewKind::TopDown, "dag", layers * width, layers * width * 2);
    for l in 0..layers {
        for w in 0..width {
            let v = g.add_vertex(VertexLabel::Compute, format!("n{l}_{w}").as_str());
            g.set_metric(v, pag::mkeys::TIME, ((l * w) % 17) as f64 + 1.0);
        }
    }
    for l in 0..layers - 1 {
        for w in 0..width {
            let src = VertexId((l * width + w) as u32);
            let d1 = VertexId(((l + 1) * width + w) as u32);
            let d2 = VertexId(((l + 1) * width + (w + 1) % width) as u32);
            g.add_edge(src, d1, EdgeLabel::IntraProc);
            g.add_edge(src, d2, EdgeLabel::IntraProc);
        }
    }
    g
}

fn bench_pag(c: &mut Criterion) {
    let mut group = c.benchmark_group("pag");
    group.sample_size(20);
    group.bench_function("build_10k_vertices", |b| b.iter(|| layered_dag(100, 100)));
    let g = layered_dag(100, 100);
    group.bench_function("serialize_10k", |b| b.iter(|| pag::serialize::encode(&g)));
    let bytes = pag::serialize::encode(&g);
    group.bench_function("deserialize_10k", |b| {
        b.iter(|| pag::serialize::decode(&bytes).unwrap())
    });
    group.finish();
}

fn bench_algorithms(c: &mut Criterion) {
    let mut group = c.benchmark_group("graphalgo");
    group.sample_size(20);
    let g = layered_dag(100, 100);
    group.bench_function("bfs_10k", |b| {
        b.iter(|| graphalgo::bfs_order(&g, VertexId(0)))
    });
    group.bench_function("topo_sort_10k", |b| {
        b.iter(|| graphalgo::topo_sort(&g).unwrap())
    });
    group.bench_function("critical_path_10k", |b| {
        b.iter(|| graphalgo::critical_path(&g, |_| true, |v| g.vertex_time(v)).unwrap())
    });
    group.bench_function("lca_bfs_10k", |b| {
        b.iter(|| graphalgo::lca_bfs(&g, VertexId(9_950), VertexId(9_050), |_| true))
    });
    group.bench_function("louvain_2k", |b| {
        let small = layered_dag(40, 50);
        b.iter(|| graphalgo::louvain(&small))
    });
    group.bench_function("subgraph_match_anchored", |b| {
        let mut p = graphalgo::Pattern::new();
        let x = p.add_vertex(graphalgo::PatternVertex::any());
        let y = p.add_vertex(graphalgo::PatternVertex::any());
        let z = p.add_vertex(graphalgo::PatternVertex::any());
        p.add_edge(x, y, None);
        p.add_edge(y, z, None);
        b.iter(|| graphalgo::match_subgraph(&g, &p, Some((1, VertexId(5_000))), 16))
    });
    group.finish();
}

fn bench_pipeline(c: &mut Criterion) {
    use perflow::{PerFlow, RunHandleExt};
    let mut group = c.benchmark_group("perflow");
    group.sample_size(10);
    let pflow = PerFlow::new();
    let prog = workloads::cg();
    group.bench_function("profile_cg_16ranks", |b| {
        b.iter(|| pflow.run(&prog, &RunConfig::new(16)).unwrap())
    });
    let run = pflow.run(&prog, &RunConfig::new(16)).unwrap();
    group.bench_function("hotspot_plus_imbalance", |b| {
        b.iter(|| {
            let hot = pflow.hotspot_detection(&run.vertices(), 10);
            pflow.imbalance_analysis(&hot, 0.2)
        })
    });
    group.bench_function("parallel_view_cg_16ranks", |b| {
        b.iter(|| {
            let fresh = pflow.run(&prog, &RunConfig::new(16)).unwrap();
            let _ = fresh.parallel().num_vertices();
        })
    });
    group.finish();
}

fn bench_simulation_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("simrt_scaling");
    group.sample_size(10);
    let prog = workloads::zeusmp();
    for ranks in [16u32, 64, 256] {
        group.bench_with_input(BenchmarkId::new("zeusmp", ranks), &ranks, |b, &r| {
            let cfg = RunConfig::new(r).with_collection(simrt::CollectionConfig::off());
            b.iter(|| simrt::simulate(&prog, &cfg).unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_pag,
    bench_algorithms,
    bench_pipeline,
    bench_simulation_scaling
);
criterion_main!(benches);
