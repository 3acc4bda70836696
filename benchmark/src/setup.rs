//! The shared set-up every workload starts from: the seed-42 world, a
//! Quick-scale campaign, and one SVM model per evaluation channel.
//!
//! The campaign drives the two sensors the workloads use: the RTL-SDR,
//! whose readings train the models and feed the fleet's uploads, and the
//! spectrum analyzer, whose series is the ground truth device scans are
//! checked against. The world is fixed; `--seed` drives only the inputs
//! the workloads generate from it.

use std::time::Instant;

use waldo::{ModelConstructor, WaldoConfig, WaldoModel};
use waldo_data::{Campaign, CampaignBuilder};
use waldo_rf::world::WorldBuilder;
use waldo_rf::TvChannel;
use waldo_sensors::{SensorKind, SensorModel};

/// Seed of the world, the campaign, and every model fit.
const WORLD_SEED: u64 = 42;
/// Readings per channel and route spacing of the campaign (Quick scale).
const READINGS_PER_CHANNEL: usize = 1200;
const SPACING_M: f64 = 500.0;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// What the set-up builds.
pub struct Fixture {
    /// The collected campaign (RTL-SDR and spectrum analyzer, all
    /// channels).
    pub campaign: Campaign,
    /// One fitted model per [`TvChannel::EVALUATION`] channel, in order.
    pub models: Vec<(TvChannel, WaldoModel)>,
}

impl Fixture {
    /// Collects the campaign and fits the models.
    pub fn build() -> Self {
        let world = WorldBuilder::new().seed(WORLD_SEED).build();
        let campaign = CampaignBuilder::new(&world)
            .sensors(vec![SensorModel::rtl_sdr(), SensorModel::spectrum_analyzer()])
            .readings_per_channel(READINGS_PER_CHANNEL)
            .spacing_m(SPACING_M)
            .seed(WORLD_SEED)
            .collect();
        let models = TvChannel::EVALUATION
            .iter()
            .map(|&channel| {
                let data = campaign
                    .dataset(SensorKind::RtlSdr, channel)
                    .expect("the campaign drives every channel with the RTL-SDR");
                let model = constructor().fit(data).expect("campaign data trains");
                (channel, model)
            })
            .collect();
        Self { campaign, models }
    }

    /// The model fitted for `channel`.
    pub fn model(&self, channel: TvChannel) -> &WaldoModel {
        &self.models.iter().find(|(c, _)| *c == channel).expect("an evaluation channel").1
    }

    /// Builds the fixture [`SETUP_REPEATS`] times and returns the last
    /// build with every build's wall time in seconds.
    pub fn build_timed() -> (Self, Vec<f64>) {
        let mut times = Vec::with_capacity(SETUP_REPEATS);
        let mut fixture = None;
        for _ in 0..SETUP_REPEATS {
            drop(fixture.take());
            let start = Instant::now();
            let built = std::hint::black_box(Self::build());
            times.push(start.elapsed().as_secs_f64());
            fixture = Some(built);
        }
        (fixture.expect("at least one set-up"), times)
    }
}

/// The model constructor of the set-up and of every refit.
pub fn constructor() -> ModelConstructor {
    ModelConstructor::new(WaldoConfig::default().seed(WORLD_SEED))
}
