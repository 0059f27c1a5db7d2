//! Tier-1 guard that the channel/way topology is actually used: on a short
//! Financial1 replay with the Optimal FTL (no translation traffic, so every
//! flash op is a host program or read), simulated device time must fall as
//! channels are added, and 4 channels must take at most 0.75× the
//! 1-channel figure. Each block is a superblock striped page by page across
//! the units, so consecutive programs land on different dies; with a
//! block-per-die layout every page of the active block queued on one die
//! and 4 channels read 0.99× (0.95× at 200 k requests).

use tpftl_core::ftl::OptimalFtl;
use tpftl_core::SsdConfig;
use tpftl_sim::Ssd;
use tpftl_trace::presets::Workload;

const REQUESTS: usize = 10_000;

fn device_us(channels: u32) -> f64 {
    let workload = Workload::Financial1;
    let mut config = SsdConfig::paper_default(workload.address_bytes());
    config.prefill_frac = 1.0;
    config.topology.channels = channels;
    let mut ssd = Ssd::new(OptimalFtl::new(&config), config).unwrap();
    let report = ssd.run(workload.spec(REQUESTS).iter(2015)).unwrap();
    assert_eq!(report.sim.channels, channels);
    report.sim.device_us
}

#[test]
fn device_time_scales_with_channels() {
    let [one, two, four] = [1, 2, 4].map(device_us);
    assert!(
        four < two && two < one,
        "device time must fall as channels are added: 1ch {one}, 2ch {two}, 4ch {four}"
    );
    assert!(
        four <= 0.75 * one,
        "4 channels took {:.3}x the 1-channel device time (must be <= 0.75x)",
        four / one
    );
}
