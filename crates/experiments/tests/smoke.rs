//! End-to-end testbed smoke tests: the full paper topology downloads a
//! file correctly with both clients.

use simnet::{SimDuration, SimTime};
use softstage::{SoftStageClient, SoftStageConfig};
use softstage_experiments::{build, ExperimentParams, MB};
use xia_addr::{Dag, Xid};
use xia_host::EndHost;

fn small_params() -> ExperimentParams {
    ExperimentParams {
        file_size: 8 * MB,
        chunk_size: MB,
        ..ExperimentParams::default()
    }
}

fn deadline() -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(600)
}

#[test]
fn softstage_downloads_with_staging() {
    let params = small_params();
    let schedule = params.alternating_schedule(SimDuration::from_secs(600));
    let mut tb = build(&params, &schedule, SoftStageConfig::default());
    let result = tb.run(deadline());
    assert!(result.completion.is_some(), "download finished");
    assert!(result.content_ok, "content verified against publisher hash");
    assert_eq!(
        tb.client_app().content_digest(),
        tb.catalog[0].0.digest(),
        "client-side and publisher-side digests agree"
    );
    assert_eq!(result.chunks_fetched, 8);
    assert!(
        result.stats.from_staged > 0,
        "some chunks came from edge caches: {result:?}"
    );
}

#[test]
fn xftp_baseline_downloads_everything_from_origin() {
    let params = small_params();
    let schedule = params.alternating_schedule(SimDuration::from_secs(600));
    let mut tb = build(&params, &schedule, SoftStageConfig::baseline());
    let result = tb.run(deadline());
    assert!(result.completion.is_some(), "download finished");
    assert!(result.content_ok);
    assert_eq!(
        result.stats.from_staged, 0,
        "baseline never uses staged copies"
    );
    assert_eq!(result.stats.from_origin, 8);
}

#[test]
fn softstage_beats_xftp_on_default_parameters() {
    let params = small_params();
    let schedule = params.alternating_schedule(SimDuration::from_secs(600));
    let soft = build(&params, &schedule, SoftStageConfig::default()).run(deadline());
    let base = build(&params, &schedule, SoftStageConfig::baseline()).run(deadline());
    let (s, b) = (soft.completion.unwrap(), base.completion.unwrap());
    assert!(s < b, "SoftStage ({s}) should finish before Xftp ({b})");
}

#[test]
fn no_vnf_falls_back_to_origin() {
    let mut params = small_params();
    params.vnf_deployed = false;
    let schedule = params.alternating_schedule(SimDuration::from_secs(600));
    let mut tb = build(&params, &schedule, SoftStageConfig::default());
    let result = tb.run(deadline());
    assert!(
        result.completion.is_some(),
        "fault tolerance: still completes"
    );
    assert!(result.content_ok);
    assert_eq!(result.stats.from_staged, 0);
}

/// The digest is over the ordered CIDs the fetches verified, so a client
/// that downloads the manifest's chunks in another order, or not all of
/// them, finishes but does not verify — exactly as the byte hash it
/// replaced would have said.
#[test]
fn reordered_or_short_downloads_do_not_verify() {
    let params = small_params();
    let schedule = params.alternating_schedule(SimDuration::from_secs(600));
    type Tamper = fn(&mut Vec<(Xid, Dag)>);
    let tamperings: [(&str, Tamper); 2] = [
        ("two entries swapped", |dags| dags.swap(2, 5)),
        ("one entry dropped", |dags| {
            dags.remove(3);
        }),
    ];
    for (what, tamper) in tamperings {
        let mut tb = build(&params, &schedule, SoftStageConfig::baseline());
        let mut dags = tb.catalog[0].1.clone();
        tamper(&mut dags);
        let client = tb.client;
        *tb.sim
            .node_mut::<EndHost>(client)
            .expect("client node")
            .host_mut()
            .app_mut::<SoftStageClient>(0)
            .expect("client app") =
            SoftStageClient::new(dags, params.chunk_size, SoftStageConfig::baseline());
        let result = tb.run(deadline());
        assert!(result.completion.is_some(), "{what}: every chunk exists");
        assert!(!result.content_ok, "{what}: must not verify");
    }
}
