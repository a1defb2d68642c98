//! The layer probe: protocol encode/decode, `ResultCache` get/put,
//! `Store` get/put and the codec, each timed in-process on the exact
//! requests and replies a served run carried.

use crate::stats::{median, quantile};
use crate::Metric;
use bfdn_service::{CacheConfig, ExploreResult, ExploreSpec, Request, Response, ResultCache};
use bfdn_store::{codec, Store, StoreConfig};
use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

/// Passes over the carried traffic; each metric is the median pass.
const PASSES: usize = 5;

/// One request and the reply it got.
pub struct Exchange {
    pub request: Request,
    pub reply: Response,
}

/// Seconds one pass of `pass` takes, median of [`PASSES`] passes.
fn median_pass_s(mut pass: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..PASSES)
        .map(|_| {
            let t = Instant::now();
            pass();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Probes every layer on `carried`; `dir` is a fresh directory for the
/// probe's own store.
pub fn run(carried: &[Exchange], dir: &Path) -> Result<Vec<Metric>, String> {
    if carried.is_empty() {
        return Err("the layer probe needs carried traffic".into());
    }
    let requests: Vec<String> = carried.iter().map(|x| x.request.to_json()).collect();
    let replies: Vec<String> = carried.iter().map(|x| x.reply.to_json()).collect();
    let per_exchange_us = 1e6 / carried.len() as f64;
    let encode_us = per_exchange_us
        * median_pass_s(|| {
            for x in carried {
                std::hint::black_box(x.request.to_json());
                std::hint::black_box(x.reply.to_json());
            }
        });
    let decode_us = per_exchange_us
        * median_pass_s(|| {
            for (request, reply) in requests.iter().zip(&replies) {
                std::hint::black_box(Request::from_json(request).expect("request decodes"));
                std::hint::black_box(Response::from_json(reply).expect("reply decodes"));
            }
        });
    let reply_bytes: Vec<f64> = replies.iter().map(|r| (r.len() + 4) as f64).collect();

    // Every result the traffic carried, in order, and each distinct one
    // once: what the daemon looked up, and what it stored.
    let results: Vec<&ExploreResult> = carried
        .iter()
        .flat_map(|x| match &x.reply {
            Response::Result(r) => vec![r.as_ref()],
            Response::Batch { results, .. } => results.iter().collect(),
            _ => Vec::new(),
        })
        .collect();
    let mut seen = HashSet::new();
    let distinct: Vec<&ExploreResult> = results
        .iter()
        .copied()
        .filter(|r| seen.insert(r.spec.canonical()))
        .collect();
    let specs: Vec<&ExploreSpec> = results.iter().map(|r| &r.spec).collect();

    let mut cache_put = Vec::new();
    let mut cache_get = Vec::new();
    for _ in 0..PASSES {
        // Room for every result in any one shard: the probe times
        // lookups that hit, never an eviction.
        let shards = CacheConfig::default().shards;
        let cache = ResultCache::new(CacheConfig {
            capacity: distinct.len() * shards,
            shards,
        });
        let t = Instant::now();
        for r in &distinct {
            cache.put(r);
        }
        cache_put.push(t.elapsed().as_secs_f64() * 1e6 / distinct.len() as f64);
        let t = Instant::now();
        for spec in &specs {
            std::hint::black_box(cache.get(spec).expect("probe cache holds every result"));
        }
        cache_get.push(t.elapsed().as_secs_f64() * 1e6 / specs.len() as f64);
    }

    let keyed: Vec<(String, String)> = distinct
        .iter()
        .map(|r| (r.spec.canonical(), r.payload_json()))
        .collect();
    let lookups: Vec<String> = specs.iter().map(|s| s.canonical()).collect();
    let mut store_put = Vec::new();
    let mut store_get = Vec::new();
    for pass in 0..PASSES {
        let (mut store, _) = Store::open(StoreConfig::new(dir.join(format!("store-{pass}"))))
            .map_err(|e| format!("probe store: {e}"))?;
        let t = Instant::now();
        for (key, payload) in &keyed {
            store
                .put(key, payload)
                .map_err(|e| format!("probe store put: {e}"))?;
        }
        store_put.push(t.elapsed().as_secs_f64() * 1e6 / keyed.len() as f64);
        let t = Instant::now();
        for key in &lookups {
            let got = store
                .get(key)
                .map_err(|e| format!("probe store get: {e}"))?;
            std::hint::black_box(got.ok_or("probe store lost a record")?);
        }
        store_get.push(t.elapsed().as_secs_f64() * 1e6 / lookups.len() as f64);
    }

    let raw: Vec<Vec<u8>> = keyed.iter().map(|(_, p)| p.clone().into_bytes()).collect();
    let packed: Vec<Vec<u8>> = raw.iter().map(|p| codec::compress(p)).collect();
    for (p, c) in raw.iter().zip(&packed) {
        if codec::decompress(c, p.len()).as_deref() != Ok(p.as_slice()) {
            return Err("codec round trip changed a payload".into());
        }
    }
    // Both directions are timed per raw byte, consumed or produced.
    let raw_len: Vec<usize> = raw.iter().map(Vec::len).collect();
    let bytes: usize = raw_len.iter().sum();
    let megabytes = bytes as f64 / 1e6;
    let compress_mb_per_s = megabytes
        / median_pass_s(|| {
            for p in &raw {
                std::hint::black_box(codec::compress(p));
            }
        });
    let decompress_mb_per_s = megabytes
        / median_pass_s(|| {
            for (c, &len) in packed.iter().zip(&raw_len) {
                std::hint::black_box(codec::decompress(c, len).expect("round-tripped above"));
            }
        });
    // The store keeps a payload verbatim when compression would grow it.
    let stored: usize = packed
        .iter()
        .zip(&raw_len)
        .map(|(c, &len)| c.len().min(len))
        .sum();
    let sizes: Vec<f64> = raw_len.iter().map(|&l| l as f64).collect();
    eprintln!(
        "layer probe: {} exchanges, {} results ({} distinct); payload bytes p10 {} p50 {} p90 {} max {}",
        carried.len(),
        results.len(),
        distinct.len(),
        quantile(&sizes, 0.1),
        quantile(&sizes, 0.5),
        quantile(&sizes, 0.9),
        quantile(&sizes, 1.0),
    );

    Ok(vec![
        Metric::new("protocol.encode_us", encode_us, "us"),
        Metric::new("protocol.decode_us", decode_us, "us"),
        Metric::new(
            "protocol.reply_bytes.p50",
            quantile(&reply_bytes, 0.5),
            "bytes",
        ),
        Metric::new("cache.get_us", median(&cache_get), "us"),
        Metric::new("cache.put_us", median(&cache_put), "us"),
        Metric::new("store.get_us", median(&store_get), "us"),
        Metric::new("store.put_us", median(&store_put), "us"),
        Metric::new("codec.compress_mb_per_s", compress_mb_per_s, "MB/s"),
        Metric::new("codec.decompress_mb_per_s", decompress_mb_per_s, "MB/s"),
        Metric::new(
            "store.compression_ratio",
            bytes as f64 / stored as f64,
            "ratio",
        ),
    ])
}
