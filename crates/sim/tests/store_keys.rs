//! The store-key rule of the campaign executor, pinned across both entry
//! points: a 1-shard work unit — an unsharded campaign, an explicit
//! one-shard campaign, or a `bvf-serve` job — reads and writes exactly one
//! whole-application entry at [`ResultStore::key`], with a `TraceSummary`
//! payload and no shard sub-key.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use bvf_sim::serve::{client, protocol, ServeOptions, Server};
use bvf_sim::{Campaign, CampaignOptions, Parallelism, ResultStore, ShardMode};

const SMOKE_APPS: [&str; 6] = ["VAD", "BFS", "BLA", "IMD", "RED", "SGE"];

/// Every entry file under the store root, sorted.
fn entry_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for sub in std::fs::read_dir(root).expect("store dir") {
        let sub = sub.expect("dir entry").path();
        if sub.is_dir() {
            for f in std::fs::read_dir(&sub).expect("fan-out dir") {
                files.push(f.expect("entry").path());
            }
        }
    }
    files.sort();
    files
}

/// Where the whole-application entry of each campaign app lives.
fn whole_app_paths(store: &ResultStore, c: &Campaign) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = SMOKE_APPS
        .iter()
        .map(|code| {
            let key = ResultStore::key(&c.config, c.arch, c.isa_mask, code);
            store
                .root()
                .join(format!("{:02x}", key >> 56))
                .join(format!("{key:016x}.bvfs"))
        })
        .collect();
    paths.sort();
    paths
}

#[test]
fn one_shard_units_use_whole_app_keys_in_campaigns_and_in_serve() {
    let mut campaigns = Vec::new();
    let mut stores = Vec::new();
    for (tag, shards) in [("off", ShardMode::Off), ("fixed1", ShardMode::Fixed(1))] {
        let dir = std::env::temp_dir().join(format!("bvf_store_keys_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(ResultStore::open(&dir).expect("open store"));
        let c = Campaign::smoke_with_options(&CampaignOptions {
            par: Parallelism::Fixed(2),
            shards,
            store: Some(Arc::clone(&store)),
            ..CampaignOptions::default()
        });
        assert_eq!(c.shards, 1, "{tag}: one shard per app");
        assert_eq!((c.cache_hits, c.cache_misses), (0, 6), "{tag}: cold store");
        assert_eq!(
            entry_files(store.root()),
            whole_app_paths(&store, &c),
            "{tag}: exactly one whole-app entry per app, no sub-keys"
        );
        campaigns.push(c);
        stores.push(store);
    }
    assert_eq!(campaigns[0], campaigns[1]);

    // A server on the same store answers the same apps without simulating,
    // with the bytes a direct campaign prints.
    let server = Server::start(ServeOptions {
        store: Some(Arc::clone(&stores[0])),
        ..ServeOptions::default()
    })
    .expect("server starts");
    let body = format!(r#"{{"apps":{:?},"sms":2}}"#, SMOKE_APPS);
    let req = protocol::parse_request(&body).expect("request parses");
    let resp = client::post_run(&server.addr().to_string(), &body, Duration::from_secs(120))
        .expect("request succeeds");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, protocol::body_from_campaign(&req, &campaigns[0]));
    let counter = |name| server.sink().counter_value(server.sink().counter(name));
    assert_eq!(counter("serve.simulations"), 0);
    assert_eq!(counter("serve.store_hits"), 6);
    server.shutdown();
    for store in stores {
        let _ = std::fs::remove_dir_all(store.root());
    }
}
