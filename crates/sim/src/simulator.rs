//! The network-level GPRS simulator: seven cells, explicit handovers,
//! TCP sources, and the BSC/radio data path.
//!
//! # Architecture
//!
//! The simulator owns a [`gprs_des::Simulation`] event loop and per-cell
//! state ([`crate::cell::Cell`]). GPRS sessions are driven by three
//! cooperating machines:
//!
//! * the 3GPP *application* (packet calls / reading times, sampled by
//!   `gprs-traffic`), which emits packets into the TCP send buffer;
//! * the *TCP sender/receiver* pair (`crate::tcp`), a pure state machine
//!   whose outputs (transmissions, RTO deadline) the simulator turns
//!   into events;
//! * the *radio path*: wired delay → BSC FIFO buffer (capacity `K`,
//!   drops when full) → PDCH service, either processor-sharing or
//!   20 ms TDMA radio blocks.
//!
//! Every cell runs its **own** [`gprs_core::CellConfig`]
//! ([`SimConfig::cells`]): coding scheme, buffer capacity, channel
//! split, session cap, traffic and mobility parameters are all read
//! through the event's cell index, so fully heterogeneous clusters —
//! the scenarios the analytical
//! [`ClusterModel`](gprs_core::cluster::ClusterModel) fixed point was
//! built for — simulate end to end. A uniform cell vector reproduces
//! the legacy shared-parameter simulator bit for bit.
//!
//! Statistics are collected in the mid cell only, with warm-up deletion
//! and batch-means confidence intervals, as in the paper.

use crate::cell::Cell;
use crate::config::{RadioModel, SimConfig};
use crate::events::Event;
use crate::packet::{blocks_per_packet, Packet, SessionId};
use crate::results::SimResults;
use crate::supervision::LoadSupervisor;
use crate::tcp::{Seq, TcpReceiver, TcpSender};
use gprs_core::cluster::MID_CELL;
use gprs_des::rng::RngStreams;
use gprs_des::stats::{Tally, TimeWeighted};
use gprs_des::{ConfidenceInterval, EventId, SimTime, Simulation};
use gprs_traffic::distributions::{exp_mean, geometric_min1};
use gprs_traffic::params::PACKET_SIZE_BITS;
use rand::rngs::SmallRng;
use std::collections::HashMap;

/// One in-progress packet call (document download).
#[derive(Debug)]
struct Transfer {
    total_packets: u64,
    emitted: u64,
    /// Packets resolved (delivered or lost) — used to detect call
    /// completion when TCP is disabled.
    resolved: u64,
    sender: TcpSender,
    receiver: TcpReceiver,
    rto_event: Option<EventId>,
}

// The size gap between the variants is deliberate: sessions are few
// (bounded by 7·M) and phase flips are frequent, so inline storage beats
// boxing the transfer state.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum SessionPhase {
    InCall(Transfer),
    Reading,
}

#[derive(Debug)]
struct Session {
    cell: usize,
    calls_remaining: u64,
    call_epoch: u64,
    phase: SessionPhase,
}

/// Per-batch raw measures.
#[derive(Debug, Clone, Copy, Default)]
struct BatchRow {
    cdt: f64,
    cvt: f64,
    ags: f64,
    plp: f64,
    qd: f64,
    atu_kbps: f64,
    gsm_block: f64,
    gprs_block: f64,
    ho_in_rate: f64,
    reserved: f64,
}

#[derive(Debug)]
struct Stats {
    collecting: bool,
    batch_start: f64,
    busy_pdchs: TimeWeighted,
    voice: TimeWeighted,
    sessions: TimeWeighted,
    bsc_arrivals: u64,
    bsc_drops: u64,
    delivered: u64,
    qd: Tally,
    gsm_attempts: u64,
    gsm_blocked: u64,
    gprs_attempts: u64,
    gprs_blocked: u64,
    gprs_handover_in: u64,
    batches: Vec<BatchRow>,
    tcp_retx: u64,
    reserved: TimeWeighted,
    reconfigurations: u64,
}

impl Stats {
    fn new() -> Self {
        Stats {
            collecting: false,
            batch_start: 0.0,
            busy_pdchs: TimeWeighted::new(SimTime::ZERO, 0.0),
            voice: TimeWeighted::new(SimTime::ZERO, 0.0),
            sessions: TimeWeighted::new(SimTime::ZERO, 0.0),
            bsc_arrivals: 0,
            bsc_drops: 0,
            delivered: 0,
            qd: Tally::new(),
            gsm_attempts: 0,
            gsm_blocked: 0,
            gprs_attempts: 0,
            gprs_blocked: 0,
            gprs_handover_in: 0,
            batches: Vec::new(),
            tcp_retx: 0,
            reserved: TimeWeighted::new(SimTime::ZERO, 0.0),
            reconfigurations: 0,
        }
    }

    fn restart_counters(&mut self, now: SimTime) {
        self.batch_start = now.as_secs();
        self.busy_pdchs.restart(now);
        self.voice.restart(now);
        self.sessions.restart(now);
        self.bsc_arrivals = 0;
        self.bsc_drops = 0;
        self.delivered = 0;
        self.qd.reset();
        self.gsm_attempts = 0;
        self.gsm_blocked = 0;
        self.gprs_attempts = 0;
        self.gprs_blocked = 0;
        self.gprs_handover_in = 0;
        self.reserved.restart(now);
    }

    fn close_batch(&mut self, now: SimTime) {
        let dur = now.as_secs() - self.batch_start;
        let ags = self.sessions.average(now);
        let throughput_pkts = self.delivered as f64 / dur;
        let row = BatchRow {
            cdt: self.busy_pdchs.average(now),
            cvt: self.voice.average(now),
            ags,
            plp: if self.bsc_arrivals > 0 {
                self.bsc_drops as f64 / self.bsc_arrivals as f64
            } else {
                0.0
            },
            qd: self.qd.mean(),
            atu_kbps: if ags > 0.0 {
                throughput_pkts * PACKET_SIZE_BITS / 1000.0 / ags
            } else {
                0.0
            },
            gsm_block: if self.gsm_attempts > 0 {
                self.gsm_blocked as f64 / self.gsm_attempts as f64
            } else {
                0.0
            },
            gprs_block: if self.gprs_attempts > 0 {
                self.gprs_blocked as f64 / self.gprs_attempts as f64
            } else {
                0.0
            },
            ho_in_rate: self.gprs_handover_in as f64 / dur,
            reserved: self.reserved.average(now),
        };
        self.batches.push(row);
        self.restart_counters(now);
    }
}

/// The simulator. Construct with [`GprsSimulator::new`], execute with
/// [`run`](GprsSimulator::run).
#[derive(Debug)]
pub struct GprsSimulator {
    cfg: SimConfig,
    sim: Simulation<Event>,
    cells: Vec<Cell>,
    sessions: HashMap<SessionId, Session>,
    next_session_id: SessionId,
    stats: Stats,
    /// Per-cell radio blocks per packet (from each cell's coding
    /// scheme); indexed like `cells`.
    blocks_per_pkt: Vec<u32>,
    done: bool,
    /// Per-cell voice admission cap `N − N_GPRS(t)`; static runs keep it
    /// at the configured split, supervision moves it.
    voice_caps: Vec<usize>,
    /// Per-cell load supervisors (when capacity on demand is enabled).
    supervisors: Option<Vec<LoadSupervisor>>,
    // RNG streams: decorrelated so experiments can vary one source
    // class without perturbing the rest.
    rng_arrivals: SmallRng,
    rng_voice: SmallRng,
    rng_traffic: SmallRng,
    rng_mobility: SmallRng,
    rng_radio: SmallRng,
}

impl GprsSimulator {
    /// Builds the simulator and schedules the initial arrival and batch
    /// events.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` violates the structural invariants
    /// ([`SimConfig::assert_valid`]) — hand-constructed configurations
    /// fail here with a clear message instead of underflowing mid-run.
    pub fn new(cfg: SimConfig) -> Self {
        cfg.assert_valid();
        let streams = RngStreams::new(cfg.seed);
        let blocks: Vec<u32> = cfg
            .cells
            .iter()
            .map(|c| blocks_per_packet(c.coding_scheme.data_rate_bps()))
            .collect();
        // Each cell's supervisor range is clamped to that cell's
        // channel count, so even a config that bypassed the builder's
        // validation can never reserve a cell's whole capacity (which
        // would underflow the voice cap below and in `on_supervision`).
        let supervisors = cfg.supervision.map(|sup| {
            cfg.cells
                .iter()
                .map(|c| LoadSupervisor::new(sup.clamped_to(c.total_channels), c.reserved_pdchs))
                .collect::<Vec<_>>()
        });
        let initial_reserved = supervisors
            .as_ref()
            .map(|sups| sups[MID_CELL].reserved())
            .unwrap_or(cfg.cells[MID_CELL].reserved_pdchs);
        let voice_caps = match &supervisors {
            Some(sups) => sups
                .iter()
                .zip(&cfg.cells)
                .map(|(s, c)| c.total_channels - s.reserved())
                .collect(),
            None => cfg.cells.iter().map(|c| c.gsm_channels()).collect(),
        };
        let mut s = GprsSimulator {
            sim: Simulation::new(),
            cells: (0..cfg.num_cells()).map(|_| Cell::new()).collect(),
            sessions: HashMap::new(),
            next_session_id: 1,
            stats: Stats::new(),
            blocks_per_pkt: blocks,
            done: false,
            voice_caps,
            supervisors,
            rng_arrivals: streams.stream(0),
            rng_voice: streams.stream(1),
            rng_traffic: streams.stream(2),
            rng_mobility: streams.stream(3),
            rng_radio: streams.stream(4),
            cfg,
        };
        s.stats.reserved.set(SimTime::ZERO, initial_reserved as f64);
        s.prime();
        s
    }

    fn prime(&mut self) {
        for cell in 0..self.cfg.num_cells() {
            let gsm_gap = 1.0 / self.cfg.gsm_arrival_rate_in(cell);
            let d = exp_mean(&mut self.rng_arrivals, gsm_gap);
            self.sim.schedule_in(d, Event::GsmArrival { cell });
            let gprs_gap = 1.0 / self.cfg.gprs_arrival_rate_in(cell);
            let d = exp_mean(&mut self.rng_arrivals, gprs_gap);
            self.sim.schedule_in(d, Event::GprsArrival { cell });
        }
        // First boundary ends the warm-up; subsequent ones close batches.
        self.sim
            .schedule_in(self.cfg.warmup.max(1e-9), Event::BatchBoundary);
        if let Some(sup) = &self.cfg.supervision {
            self.sim.schedule_in(sup.epoch, Event::Supervision);
        }
    }

    /// Runs to completion (all batches collected) and returns the
    /// results.
    pub fn run(mut self) -> SimResults {
        while !self.done {
            let Some((now, ev)) = self.sim.next_event() else {
                break;
            };
            self.handle(now, ev);
            self.refresh_mid_signals(now);
        }
        self.finish()
    }

    fn refresh_mid_signals(&mut self, now: SimTime) {
        let n_total = self.cfg.cells[MID_CELL].total_channels;
        let mid = &self.cells[MID_CELL];
        self.stats
            .busy_pdchs
            .set(now, mid.busy_pdchs(n_total) as f64);
        self.stats.voice.set(now, mid.voice_calls as f64);
        self.stats.sessions.set(now, mid.num_sessions() as f64);
    }

    fn finish(self) -> SimResults {
        let rows = &self.stats.batches;
        assert!(
            rows.len() >= 2,
            "simulation ended with fewer than two batches"
        );
        let pick = |f: &dyn Fn(&BatchRow) -> f64| {
            let means: Vec<f64> = rows.iter().map(f).collect();
            ConfidenceInterval::from_batch_means(&means)
        };
        SimResults {
            // Statistics are collected in the mid cell, so report its
            // arrival rate (differs from the shared one only for
            // heterogeneous clusters).
            call_arrival_rate: self.cfg.arrival_rate_in(MID_CELL),
            carried_data_traffic: pick(&|r| r.cdt),
            carried_voice_traffic: pick(&|r| r.cvt),
            packet_loss_probability: pick(&|r| r.plp),
            queueing_delay: pick(&|r| r.qd),
            throughput_per_user_kbps: pick(&|r| r.atu_kbps),
            avg_gprs_sessions: pick(&|r| r.ags),
            gsm_blocking_probability: pick(&|r| r.gsm_block),
            gprs_blocking_probability: pick(&|r| r.gprs_block),
            gprs_handover_in_rate: pick(&|r| r.ho_in_rate),
            avg_reserved_pdchs: pick(&|r| r.reserved),
            reconfigurations: self.stats.reconfigurations,
            events_processed: self.sim.events_processed(),
            simulated_time: self.sim.now().as_secs(),
            tcp_retransmissions: self.stats.tcp_retx,
        }
    }

    // ------------------------------------------------------------------
    // Event dispatch
    // ------------------------------------------------------------------

    fn handle(&mut self, now: SimTime, ev: Event) {
        match ev {
            Event::GsmArrival { cell } => self.on_gsm_arrival(now, cell),
            Event::GsmLeave { cell } => self.on_gsm_leave(now, cell),
            Event::GprsArrival { cell } => self.on_gprs_arrival(now, cell),
            Event::SessionDwell { session } => self.on_session_dwell(now, session),
            Event::AppEmission {
                session,
                call_epoch,
            } => self.on_app_emission(now, session, call_epoch),
            Event::ReadingEnd { session } => self.on_reading_end(now, session),
            Event::BscArrival { packet } => self.on_bsc_arrival(now, packet),
            Event::ServiceComplete { cell } => self.on_service_complete(now, cell),
            Event::RadioTick { cell } => self.on_radio_tick(now, cell),
            Event::AckArrival {
                session,
                call_epoch,
                ack,
            } => self.on_ack_arrival(now, session, call_epoch, ack),
            Event::RtoTimer {
                session,
                call_epoch,
                rto_epoch,
            } => self.on_rto(now, session, call_epoch, rto_epoch),
            Event::BatchBoundary => self.on_batch_boundary(now),
            Event::Supervision => self.on_supervision(now),
        }
    }

    // --- GSM voice ----------------------------------------------------

    fn on_gsm_arrival(&mut self, _now: SimTime, cell: usize) {
        // Next arrival of the per-cell Poisson stream.
        let gap = 1.0 / self.cfg.gsm_arrival_rate_in(cell);
        let d = exp_mean(&mut self.rng_arrivals, gap);
        self.sim.schedule_in(d, Event::GsmArrival { cell });

        if cell == MID_CELL && self.stats.collecting {
            self.stats.gsm_attempts += 1;
        }
        if self.cells[cell].voice_calls < self.voice_caps[cell] {
            self.admit_voice(cell);
        } else if cell == MID_CELL && self.stats.collecting {
            self.stats.gsm_blocked += 1;
        }
    }

    fn admit_voice(&mut self, cell: usize) {
        self.cells[cell].voice_calls += 1;
        let c = &self.cfg.cells[cell];
        let leave_rate = c.gsm_completion_rate() + c.gsm_handover_rate();
        let d = exp_mean(&mut self.rng_voice, 1.0 / leave_rate);
        self.sim.schedule_in(d, Event::GsmLeave { cell });
        self.channels_changed(cell);
    }

    fn on_gsm_leave(&mut self, _now: SimTime, cell: usize) {
        debug_assert!(self.cells[cell].voice_calls > 0);
        self.cells[cell].voice_calls -= 1;
        self.channels_changed(cell);

        // Exponential race: handover with prob μ_h/(μ + μ_h), at the
        // departing cell's rates.
        let mu = self.cfg.cells[cell].gsm_completion_rate();
        let mu_h = self.cfg.cells[cell].gsm_handover_rate();
        let u: f64 = rand::Rng::gen(&mut self.rng_voice);
        if u < mu_h / (mu + mu_h) {
            let u2: f64 = rand::Rng::gen(&mut self.rng_mobility);
            let target = self
                .cfg
                .graph
                .handover_target(cell, u2)
                .expect("simulator cell indices are graph cells and u is in [0, 1]");
            if self.cells[target].voice_calls < self.voice_caps[target] {
                self.admit_voice(target);
            }
            // else: handover failure, call is dropped.
        }
    }

    // --- GPRS session lifecycle ----------------------------------------

    fn on_gprs_arrival(&mut self, now: SimTime, cell: usize) {
        let gap = 1.0 / self.cfg.gprs_arrival_rate_in(cell);
        let d = exp_mean(&mut self.rng_arrivals, gap);
        self.sim.schedule_in(d, Event::GprsArrival { cell });

        if cell == MID_CELL && self.stats.collecting {
            self.stats.gprs_attempts += 1;
        }
        if self.cells[cell].num_sessions() >= self.cfg.cells[cell].max_gprs_sessions {
            if cell == MID_CELL && self.stats.collecting {
                self.stats.gprs_blocked += 1;
            }
            return;
        }
        let id = self.next_session_id;
        self.next_session_id += 1;
        let calls = geometric_min1(
            &mut self.rng_traffic,
            self.cfg.cells[cell].traffic.packet_calls_per_session,
        );
        self.cells[cell].gprs_sessions.insert(id);
        self.sessions.insert(
            id,
            Session {
                cell,
                calls_remaining: calls,
                call_epoch: 0,
                phase: SessionPhase::Reading, // placeholder; replaced below
            },
        );
        self.start_packet_call(now, id);
        // Independent dwell clock.
        let d = exp_mean(&mut self.rng_mobility, self.cfg.cells[cell].gprs_dwell_time);
        self.sim.schedule_in(d, Event::SessionDwell { session: id });
    }

    fn start_packet_call(&mut self, now: SimTime, id: SessionId) {
        let cell = self.sessions.get(&id).expect("session exists").cell;
        let total = geometric_min1(
            &mut self.rng_traffic,
            self.cfg.cells[cell].traffic.packets_per_call,
        );
        let session = self.sessions.get_mut(&id).expect("session exists");
        session.call_epoch += 1;
        let epoch = session.call_epoch;
        session.phase = SessionPhase::InCall(Transfer {
            total_packets: total,
            emitted: 0,
            resolved: 0,
            sender: TcpSender::new(self.cfg.tcp),
            receiver: TcpReceiver::new(),
            rto_event: None,
        });
        let gap = exp_mean(
            &mut self.rng_traffic,
            self.cfg.cells[cell].traffic.packet_interarrival,
        );
        let _ = now;
        self.sim.schedule_in(
            gap,
            Event::AppEmission {
                session: id,
                call_epoch: epoch,
            },
        );
    }

    fn on_app_emission(&mut self, now: SimTime, id: SessionId, epoch: u64) {
        let Some(session) = self.sessions.get_mut(&id) else {
            return;
        };
        if session.call_epoch != epoch {
            return;
        }
        let SessionPhase::InCall(transfer) = &mut session.phase else {
            return;
        };
        transfer.emitted += 1;
        let emitted = transfer.emitted;
        let more = emitted < transfer.total_packets;

        let to_send: Vec<Seq> = if self.cfg.tcp.enabled {
            transfer.sender.on_app_data(emitted, now.as_secs())
        } else {
            vec![emitted]
        };
        let cell = session.cell;
        for seq in to_send {
            self.transmit(now, id, epoch, cell, seq);
        }
        self.sync_rto(now, id);

        if more {
            let gap = exp_mean(
                &mut self.rng_traffic,
                self.cfg.cells[cell].traffic.packet_interarrival,
            );
            self.sim.schedule_in(
                gap,
                Event::AppEmission {
                    session: id,
                    call_epoch: epoch,
                },
            );
        }
    }

    fn transmit(&mut self, _now: SimTime, id: SessionId, epoch: u64, cell: usize, seq: Seq) {
        let packet = Packet {
            session: id,
            seq,
            call_epoch: epoch,
            cell,
            bsc_arrival: 0.0,
            blocks_remaining: self.blocks_per_pkt[cell],
        };
        self.sim
            .schedule_in(self.cfg.wired_delay, Event::BscArrival { packet });
    }

    fn on_reading_end(&mut self, now: SimTime, id: SessionId) {
        let Some(session) = self.sessions.get_mut(&id) else {
            return;
        };
        if !matches!(session.phase, SessionPhase::Reading) {
            return;
        }
        if session.calls_remaining == 0 {
            // Session over.
            let cell = session.cell;
            self.cells[cell].gprs_sessions.remove(&id);
            self.sessions.remove(&id);
            return;
        }
        self.start_packet_call(now, id);
    }

    fn finish_call(&mut self, now: SimTime, id: SessionId) {
        let session = self.sessions.get_mut(&id).expect("session exists");
        if let SessionPhase::InCall(t) = &session.phase {
            if let Some(ev) = t.rto_event {
                self.sim.cancel(ev);
            }
        }
        session.calls_remaining = session.calls_remaining.saturating_sub(1);
        session.call_epoch += 1; // invalidate stale packet/ack/timer events
        session.phase = SessionPhase::Reading;
        let cell = session.cell;
        let d = exp_mean(
            &mut self.rng_traffic,
            self.cfg.cells[cell].traffic.reading_time,
        );
        let _ = now;
        self.sim.schedule_in(d, Event::ReadingEnd { session: id });
    }

    fn on_session_dwell(&mut self, now: SimTime, id: SessionId) {
        let Some(session) = self.sessions.get(&id) else {
            return;
        };
        let from = session.cell;
        let u: f64 = rand::Rng::gen(&mut self.rng_mobility);
        let target = self
            .cfg
            .graph
            .handover_target(from, u)
            .expect("simulator cell indices are graph cells and u is in [0, 1]");

        // Admission is judged by the *target* cell's session cap.
        if self.cells[target].num_sessions() >= self.cfg.cells[target].max_gprs_sessions {
            // Handover failure: the session is forced to terminate.
            self.drop_session(now, id);
            return;
        }
        // Move: flush old buffer; TCP will retransmit into the new cell.
        let flushed = self.cells[from].flush_session(id);
        if flushed > 0 {
            self.queue_changed(now, from);
        }
        self.cells[from].gprs_sessions.remove(&id);
        self.cells[target].gprs_sessions.insert(id);
        let session = self.sessions.get_mut(&id).expect("checked above");
        session.cell = target;
        if target == MID_CELL && self.stats.collecting {
            self.stats.gprs_handover_in += 1;
        }
        // Next dwell period, clocked by the new cell's mobility.
        let d = exp_mean(
            &mut self.rng_mobility,
            self.cfg.cells[target].gprs_dwell_time,
        );
        self.sim.schedule_in(d, Event::SessionDwell { session: id });
    }

    fn drop_session(&mut self, now: SimTime, id: SessionId) {
        let Some(session) = self.sessions.get(&id) else {
            return;
        };
        let cell = session.cell;
        if let SessionPhase::InCall(t) = &session.phase {
            if let Some(ev) = t.rto_event {
                self.sim.cancel(ev);
            }
        }
        let flushed = self.cells[cell].flush_session(id);
        if flushed > 0 {
            self.queue_changed(now, cell);
        }
        self.cells[cell].gprs_sessions.remove(&id);
        self.sessions.remove(&id);
    }

    // --- Data path ------------------------------------------------------

    fn on_bsc_arrival(&mut self, now: SimTime, mut packet: Packet) {
        let Some(session) = self.sessions.get_mut(&packet.session) else {
            return; // stale: session gone
        };
        if session.call_epoch != packet.call_epoch {
            return; // stale: belongs to a finished call
        }
        if session.cell != packet.cell {
            // Mis-routed after handover: the SGSN would re-route; here
            // the copy is simply discarded. Without TCP the packet is
            // lost for good — account for it so the call can complete.
            if !self.cfg.tcp.enabled {
                self.resolve_packet_no_tcp(now, packet.session);
            }
            return;
        }
        let cell = packet.cell;
        if cell == MID_CELL && self.stats.collecting {
            self.stats.bsc_arrivals += 1;
        }
        if self.cells[cell].queue_len() >= self.cfg.cells[cell].buffer_capacity {
            // Buffer overflow: packet lost.
            if cell == MID_CELL && self.stats.collecting {
                self.stats.bsc_drops += 1;
            }
            if !self.cfg.tcp.enabled {
                self.resolve_packet_no_tcp(now, packet.session);
            }
            return;
        }
        packet.bsc_arrival = now.as_secs();
        self.cells[cell].buffer.push_back(packet);
        self.queue_changed(now, cell);
    }

    /// Processor-sharing model: head-of-line completion.
    fn on_service_complete(&mut self, now: SimTime, cell: usize) {
        self.cells[cell].service_event = None;
        let Some(packet) = self.cells[cell].buffer.pop_front() else {
            return; // stale (queue was flushed)
        };
        self.deliver(now, packet);
        self.queue_changed(now, cell);
    }

    /// TDMA model: one 20 ms radio block elapsed.
    fn on_radio_tick(&mut self, now: SimTime, cell: usize) {
        let bler = self.cfg.cells[cell].block_error_rate;
        let total_channels = self.cfg.cells[cell].total_channels;
        let cell_state = &mut self.cells[cell];
        let rng = &mut self.rng_radio;
        cell_state.tick_scheduled = false;
        let mut channels = total_channels - cell_state.voice_calls;
        // Head-first fair assignment: up to 8 slots per packet. Each
        // transmitted block errs independently with probability BLER and
        // is then retransmitted by the RLC ARQ in a later radio block
        // (it stays in `blocks_remaining`).
        for p in cell_state.buffer.iter_mut() {
            if channels == 0 {
                break;
            }
            let take = channels.min(8).min(p.blocks_remaining as usize);
            let delivered = if bler == 0.0 {
                take as u32
            } else {
                (0..take)
                    .filter(|_| rand::Rng::gen::<f64>(rng) >= bler)
                    .count() as u32
            };
            p.blocks_remaining -= delivered;
            channels -= take;
        }
        // Deliver finished packets (preserving FIFO order).
        let mut delivered = Vec::new();
        self.cells[cell].buffer.retain(|p| {
            if p.blocks_remaining == 0 {
                delivered.push(*p);
                false
            } else {
                true
            }
        });
        for p in delivered {
            self.deliver(now, p);
        }
        self.queue_changed(now, cell);
    }

    fn deliver(&mut self, now: SimTime, packet: Packet) {
        if packet.cell == MID_CELL && self.stats.collecting {
            self.stats.delivered += 1;
            self.stats.qd.record(now.as_secs() - packet.bsc_arrival);
        }
        let Some(session) = self.sessions.get_mut(&packet.session) else {
            return;
        };
        if session.call_epoch != packet.call_epoch {
            return;
        }
        let SessionPhase::InCall(transfer) = &mut session.phase else {
            return;
        };
        let ack = transfer.receiver.on_packet(packet.seq);
        if self.cfg.tcp.enabled {
            self.sim.schedule_in(
                self.cfg.wired_delay,
                Event::AckArrival {
                    session: packet.session,
                    call_epoch: packet.call_epoch,
                    ack,
                },
            );
        } else {
            self.resolve_packet_no_tcp(now, packet.session);
        }
    }

    /// Without TCP, a packet is "resolved" when delivered or lost; the
    /// call completes when every emitted packet is resolved.
    fn resolve_packet_no_tcp(&mut self, now: SimTime, id: SessionId) {
        let Some(session) = self.sessions.get_mut(&id) else {
            return;
        };
        let SessionPhase::InCall(transfer) = &mut session.phase else {
            return;
        };
        transfer.resolved += 1;
        if transfer.resolved >= transfer.total_packets && transfer.emitted >= transfer.total_packets
        {
            self.finish_call(now, id);
        }
    }

    fn on_ack_arrival(&mut self, now: SimTime, id: SessionId, epoch: u64, ack: Seq) {
        let Some(session) = self.sessions.get_mut(&id) else {
            return;
        };
        if session.call_epoch != epoch {
            return;
        }
        let SessionPhase::InCall(transfer) = &mut session.phase else {
            return;
        };
        let retx_before = transfer.sender.retransmissions();
        let to_send = transfer.sender.on_ack(ack, now.as_secs());
        let retx_after = transfer.sender.retransmissions();
        let complete = transfer.sender.all_acked() && transfer.emitted >= transfer.total_packets;
        let cell = session.cell;
        if cell == MID_CELL && self.stats.collecting {
            self.stats.tcp_retx += retx_after - retx_before;
        }
        for seq in to_send {
            self.transmit(now, id, epoch, cell, seq);
        }
        self.sync_rto(now, id);
        if complete {
            self.finish_call(now, id);
        }
    }

    fn on_rto(&mut self, now: SimTime, id: SessionId, epoch: u64, rto_epoch: u64) {
        let Some(session) = self.sessions.get_mut(&id) else {
            return;
        };
        if session.call_epoch != epoch {
            return;
        }
        let SessionPhase::InCall(transfer) = &mut session.phase else {
            return;
        };
        if transfer.sender.rto_epoch() != rto_epoch || !transfer.sender.rto_armed() {
            return; // stale timer
        }
        let to_send = transfer.sender.on_rto(now.as_secs());
        let cell = session.cell;
        if cell == MID_CELL && self.stats.collecting {
            self.stats.tcp_retx += to_send.len() as u64;
        }
        for seq in to_send {
            self.transmit(now, id, epoch, cell, seq);
        }
        self.sync_rto(now, id);
    }

    /// Re-arms the RTO timer event to match the sender's current state.
    fn sync_rto(&mut self, _now: SimTime, id: SessionId) {
        if !self.cfg.tcp.enabled {
            return;
        }
        let Some(session) = self.sessions.get_mut(&id) else {
            return;
        };
        let epoch = session.call_epoch;
        let SessionPhase::InCall(transfer) = &mut session.phase else {
            return;
        };
        if let Some(ev) = transfer.rto_event.take() {
            self.sim.cancel(ev);
        }
        if transfer.sender.rto_armed() {
            let delay = transfer.sender.rto();
            let rto_epoch = transfer.sender.rto_epoch();
            let ev = self.sim.schedule_in(
                delay,
                Event::RtoTimer {
                    session: id,
                    call_epoch: epoch,
                    rto_epoch,
                },
            );
            // Re-borrow to store the event id.
            if let Some(session) = self.sessions.get_mut(&id) {
                if let SessionPhase::InCall(t) = &mut session.phase {
                    t.rto_event = Some(ev);
                }
            }
        }
    }

    // --- Radio bookkeeping ----------------------------------------------

    /// Voice occupancy changed: the PDCH capacity moved.
    fn channels_changed(&mut self, cell: usize) {
        let now = self.sim.now();
        self.queue_changed(now, cell);
    }

    /// Queue length or capacity changed: reschedule service.
    fn queue_changed(&mut self, now: SimTime, cell: usize) {
        match self.cfg.radio {
            RadioModel::ProcessorSharing => {
                if let Some(ev) = self.cells[cell].service_event.take() {
                    self.sim.cancel(ev);
                }
                let k = self.cells[cell].queue_len();
                let c = self.cells[cell].busy_pdchs(self.cfg.cells[cell].total_channels);
                if k > 0 && c > 0 {
                    let rate = c as f64 * self.cfg.cells[cell].packet_service_rate();
                    let d = exp_mean(&mut self.rng_radio, 1.0 / rate);
                    let ev = self.sim.schedule_in(d, Event::ServiceComplete { cell });
                    self.cells[cell].service_event = Some(ev);
                }
            }
            RadioModel::TdmaBlocks => {
                if self.cells[cell].queue_len() > 0 && !self.cells[cell].tick_scheduled {
                    self.sim
                        .schedule_in(crate::RADIO_BLOCK_SECONDS, Event::RadioTick { cell });
                    self.cells[cell].tick_scheduled = true;
                }
            }
        }
        let _ = now;
    }

    // --- Statistics ------------------------------------------------------

    fn on_batch_boundary(&mut self, now: SimTime) {
        if !self.stats.collecting {
            // Warm-up over.
            self.stats.collecting = true;
            self.stats.restart_counters(now);
        } else {
            self.stats.close_batch(now);
            if self.stats.batches.len() >= self.cfg.num_batches {
                self.done = true;
                return;
            }
        }
        self.sim
            .schedule_in(self.cfg.batch_duration, Event::BatchBoundary);
    }

    // --- Load supervision ------------------------------------------------

    fn on_supervision(&mut self, now: SimTime) {
        let Some(sup_cfg) = self.cfg.supervision else {
            return; // stale event after a config without supervision
        };
        for cell in 0..self.cfg.num_cells() {
            // Occupancy is measured against the *owning* cell's buffer
            // capacity (>= 1 by build-time validation).
            let k = self.cfg.cells[cell].buffer_capacity as f64;
            let occupancy = self.cells[cell].queue_len() as f64 / k;
            let supervisors = self
                .supervisors
                .as_mut()
                .expect("supervision config implies supervisors");
            let adjusted = supervisors[cell].observe(occupancy);
            if adjusted.is_some() {
                let reserved = supervisors[cell].reserved();
                // Ongoing calls above a shrunken cap keep their channels;
                // only new admissions see the new split.
                self.voice_caps[cell] = self.cfg.cells[cell].total_channels - reserved;
                if cell == MID_CELL {
                    self.stats.reserved.set(now, reserved as f64);
                    if self.stats.collecting {
                        self.stats.reconfigurations += 1;
                    }
                }
            }
        }
        self.sim.schedule_in(sup_cfg.epoch, Event::Supervision);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gprs_core::cluster::NUM_CELLS;
    use gprs_core::{CellConfig, CellGraph, Scenario};
    use gprs_traffic::TrafficModel;

    fn small_cell(rate: f64) -> CellConfig {
        CellConfig::builder()
            .traffic_model(TrafficModel::Model3)
            .call_arrival_rate(rate)
            .buffer_capacity(20)
            .max_gprs_sessions(5)
            .build()
            .unwrap()
    }

    fn quick_cfg(rate: f64, seed: u64) -> SimConfig {
        SimConfig::builder(small_cell(rate))
            .seed(seed)
            .warmup(200.0)
            .batches(4, 500.0)
            .build()
    }

    #[test]
    fn runs_to_completion_and_reports() {
        let r = GprsSimulator::new(quick_cfg(0.5, 1)).run();
        assert_eq!(r.carried_data_traffic.batches, 4);
        assert!(r.events_processed > 1000);
        assert!(r.simulated_time >= 200.0 + 4.0 * 500.0 - 1e-6);
        assert!(r.carried_data_traffic.mean >= 0.0);
        assert!(r.carried_voice_traffic.mean > 0.0);
        assert!(r.avg_gprs_sessions.mean > 0.0);
        assert!(r.packet_loss_probability.mean >= 0.0);
        assert!(r.packet_loss_probability.mean <= 1.0);
    }

    #[test]
    fn is_deterministic_for_fixed_seed() {
        let a = GprsSimulator::new(quick_cfg(0.4, 42)).run();
        let b = GprsSimulator::new(quick_cfg(0.4, 42)).run();
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.carried_data_traffic.mean, b.carried_data_traffic.mean);
        assert_eq!(a.queueing_delay.mean, b.queueing_delay.mean);
    }

    #[test]
    fn seeds_change_the_sample_path() {
        let a = GprsSimulator::new(quick_cfg(0.4, 1)).run();
        let b = GprsSimulator::new(quick_cfg(0.4, 2)).run();
        assert_ne!(a.events_processed, b.events_processed);
    }

    #[test]
    fn voice_load_scales_with_arrival_rate() {
        let lo = GprsSimulator::new(quick_cfg(0.2, 3)).run();
        let hi = GprsSimulator::new(quick_cfg(1.0, 3)).run();
        assert!(
            hi.carried_voice_traffic.mean > lo.carried_voice_traffic.mean,
            "{} vs {}",
            hi.carried_voice_traffic.mean,
            lo.carried_voice_traffic.mean
        );
    }

    #[test]
    fn tdma_radio_model_also_completes() {
        let cfg = SimConfig::builder(small_cell(0.4))
            .seed(5)
            .warmup(100.0)
            .batches(3, 300.0)
            .radio(RadioModel::TdmaBlocks)
            .build();
        let r = GprsSimulator::new(cfg).run();
        assert_eq!(r.carried_data_traffic.batches, 3);
        assert!(r.carried_data_traffic.mean > 0.0);
    }

    #[test]
    fn without_tcp_also_completes() {
        let cfg = SimConfig::builder(small_cell(0.4))
            .seed(6)
            .warmup(100.0)
            .batches(3, 300.0)
            .without_tcp()
            .build();
        let r = GprsSimulator::new(cfg).run();
        assert_eq!(r.carried_data_traffic.batches, 3);
        assert_eq!(r.tcp_retransmissions, 0);
    }

    #[test]
    fn hot_spot_mid_cell_carries_more_voice_than_homogeneous() {
        // Doubling only the mid cell's arrival rate must raise the
        // mid-cell voice load relative to the homogeneous run, and the
        // heterogeneous run stays deterministic.
        let homogeneous = GprsSimulator::new(quick_cfg(0.3, 21)).run();
        let scenario = Scenario::hot_spot(small_cell(0.3), 0.9).unwrap();
        let hot_cfg = || {
            SimConfig::for_scenario(&scenario)
                .unwrap()
                .seed(21)
                .warmup(200.0)
                .batches(4, 500.0)
                .build()
        };
        let hot = GprsSimulator::new(hot_cfg()).run();
        assert!(
            hot.carried_voice_traffic.mean > homogeneous.carried_voice_traffic.mean,
            "hot {} vs homogeneous {}",
            hot.carried_voice_traffic.mean,
            homogeneous.carried_voice_traffic.mean
        );
        assert!((hot.call_arrival_rate - 0.9).abs() < 1e-12);
        let again = GprsSimulator::new(hot_cfg()).run();
        assert_eq!(hot.events_processed, again.events_processed);
        assert_eq!(
            hot.carried_data_traffic.mean,
            again.carried_data_traffic.mean
        );
    }

    #[test]
    fn per_cell_session_caps_gate_admission_locally() {
        // A tight mid-cell cap inside a roomy ring: the mid-cell session
        // population (the only one measured) must respect the *mid*
        // cell's limit, not the ring's.
        let mut mid = small_cell(2.0);
        mid.gprs_fraction = 0.5;
        mid.max_gprs_sessions = 2;
        let mut ring = mid.clone();
        ring.max_gprs_sessions = 12;
        let mut cells = vec![ring; NUM_CELLS];
        cells[MID_CELL] = mid;
        let cfg = SimConfig::builder_graph(CellGraph::ring7(), cells)
            .seed(9)
            .warmup(100.0)
            .batches(3, 400.0)
            .build();
        let r = GprsSimulator::new(cfg).run();
        assert!(r.avg_gprs_sessions.mean <= 2.0 + 1e-9);
        assert!(r.gprs_blocking_probability.mean > 0.05);
    }

    #[test]
    fn upgrading_the_mid_cell_coding_scheme_raises_its_throughput() {
        use gprs_core::CodingScheme;
        let base = || {
            let mut c = small_cell(0.3);
            c.gprs_fraction = 0.2;
            c.coding_scheme = CodingScheme::Cs1;
            c
        };
        let run = |mid_cs: CodingScheme| {
            let mut cells = vec![base(); NUM_CELLS];
            cells[MID_CELL].coding_scheme = mid_cs;
            let cfg = SimConfig::builder_graph(CellGraph::ring7(), cells)
                .seed(15)
                .warmup(200.0)
                .batches(4, 500.0)
                .build();
            GprsSimulator::new(cfg).run()
        };
        let slow = run(CodingScheme::Cs1);
        let fast = run(CodingScheme::Cs4);
        assert!(
            fast.throughput_per_user_kbps.mean > slow.throughput_per_user_kbps.mean,
            "CS-4 mid cell ATU {} should beat CS-1 {}",
            fast.throughput_per_user_kbps.mean,
            slow.throughput_per_user_kbps.mean
        );
    }

    #[test]
    fn session_population_respects_admission_limit() {
        // Hammer a tiny M and verify blocking shows up.
        let cell = CellConfig::builder()
            .traffic_model(TrafficModel::Model3)
            .call_arrival_rate(2.0)
            .gprs_fraction(0.5)
            .max_gprs_sessions(2)
            .buffer_capacity(10)
            .build()
            .unwrap();
        let cfg = SimConfig::builder(cell)
            .seed(7)
            .warmup(100.0)
            .batches(3, 400.0)
            .build();
        let r = GprsSimulator::new(cfg).run();
        assert!(r.avg_gprs_sessions.mean <= 2.0 + 1e-9);
        assert!(r.gprs_blocking_probability.mean > 0.05);
    }
}
