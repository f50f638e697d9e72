//! The reference kernel the time figures are scaled by: a miniature
//! discrete-event loop, timed between repetitions.
//!
//! The host's contention slows code with a binary-heap event queue,
//! dynamic dispatch over a few node kinds, a map, short-lived
//! allocations and number formatting much as it slows the workloads; a
//! vector sort or a pointer chase slowed less than they did in the
//! heaviest phases (see the README's Steadiness section). The kernel is
//! the benchmark's own code, so no change to the program moves it, and
//! its inputs are fixed, not taken from the seed.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt::Write as _;

/// Events one run of the kernel processes (~7 ms on that host).
pub const EVENTS: u64 = 40_000;
/// Handlers in the loop, cycling through the three kinds.
const HANDLERS: usize = 12;
/// Events queued at the start.
const SEEDED: u64 = 256;

/// Events a handler emits: (due time, handler, payload).
type Emitted = Vec<(u64, usize, Vec<u8>)>;

trait Handler {
    fn on(&mut self, t: u64, payload: &[u8], out: &mut Emitted);
}

/// Counts payload digests in a tree map and forwards the payload.
struct Counter {
    counts: BTreeMap<u64, u64>,
    next: usize,
}

impl Handler for Counter {
    fn on(&mut self, t: u64, payload: &[u8], out: &mut Emitted) {
        let key = payload
            .iter()
            .fold(0u64, |h, &b| h.wrapping_mul(31).wrapping_add(u64::from(b)))
            % 4096;
        *self.counts.entry(key).or_insert(0) += 1;
        out.push((t + 3 + key % 7, self.next, payload.to_vec()));
    }
}

/// Prefixes a sequence number to the payload's head.
struct Echo {
    seq: u64,
    next: usize,
}

impl Handler for Echo {
    fn on(&mut self, t: u64, payload: &[u8], out: &mut Emitted) {
        self.seq += 1;
        let head = &payload[..payload.len().min(40)];
        let mut reply = Vec::with_capacity(head.len() + 8);
        reply.extend_from_slice(&self.seq.to_le_bytes());
        reply.extend_from_slice(head);
        out.push((t + 1 + self.seq % 5, self.next, reply));
    }
}

/// Formats the event as text and parses its time back.
struct Format {
    text: String,
    next: usize,
}

impl Handler for Format {
    fn on(&mut self, t: u64, payload: &[u8], out: &mut Emitted) {
        self.text.clear();
        // Writing into a String cannot fail.
        let _ = write!(self.text, "{t}:{}:{:.3}", payload.len(), t as f64 * 1.37);
        let due = self
            .text
            .split(':')
            .next()
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(t);
        out.push((due + 2, self.next, self.text.as_bytes().to_vec()));
    }
}

/// Runs the kernel; returns the events processed ([`EVENTS`]).
pub fn run() -> u64 {
    let mut handlers: Vec<Box<dyn Handler>> = (0..HANDLERS)
        .map(|i| {
            let next = (i * 5 + 3) % HANDLERS;
            match i % 3 {
                0 => Box::new(Counter {
                    counts: BTreeMap::new(),
                    next,
                }) as Box<dyn Handler>,
                1 => Box::new(Echo { seq: 0, next }),
                _ => Box::new(Format {
                    text: String::new(),
                    next,
                }),
            }
        })
        .collect();
    let mut queue = BinaryHeap::new();
    let mut seq = 0u64;
    for i in 0..SEEDED {
        queue.push(Reverse((i, seq, i as usize % HANDLERS, vec![i as u8; 48])));
        seq += 1;
    }
    let mut emitted = Vec::new();
    let mut done = 0;
    while done < EVENTS {
        let Some(Reverse((t, _, h, payload))) = queue.pop() else {
            break;
        };
        handlers[h].on(t, &payload, &mut emitted);
        for (due, to, p) in emitted.drain(..) {
            queue.push(Reverse((due, seq, to, p)));
            seq += 1;
        }
        done += 1;
    }
    done
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_processes_every_event() {
        // Each event emits one, so the queue never drains.
        assert_eq!(run(), EVENTS);
    }
}
