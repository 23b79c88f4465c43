//! MPI's non-overtaking rule, resolved once: the k-th send on a
//! `(from, to, tag)` channel pairs with the k-th receive on it, each in its
//! rank's program order. [`crate::Matched::build`], the simulator and the
//! data executor ([`crate::PreparedSchedule`]) all pair with
//! [`FifoChannels`], so a run pairs exactly the messages the static
//! analyses pair.
//!
//! Receives are gathered under their source; each sender's sends are then
//! split into channels against them, both sorted per sender so every
//! sort is small. [`FifoChannels::pair`] rejects a channel whose sides
//! differ; the data executor pairs its common prefix.

use a2a_topo::Rank;

use crate::ir::Bytes;
use crate::validate::ValidationError;

/// One end of a message on channel `(from, to, tag)`, kept under `from`:
/// the caller's name for its op, and its length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Post {
    pub to: Rank,
    pub tag: u32,
    pub id: u32,
    pub len: Bytes,
}

/// One channel's posts from one sender, each side in program order.
pub(crate) struct Channel<'a> {
    pub(crate) to: Rank,
    pub(crate) tag: u32,
    pub(crate) sends: &'a [Post],
    pub(crate) recvs: &'a [Post],
}

impl<'a> Channel<'a> {
    /// The k-th send with the k-th receive, for every k both sides reach.
    pub(crate) fn pairs(&self) -> impl Iterator<Item = (&'a Post, &'a Post)> {
        self.sends.iter().zip(self.recvs)
    }
}

/// A schedule's receives by source, ready to pair each sender's sends.
pub struct FifoChannels {
    /// `[from]`: the receives naming `from`, each receiver's in program
    /// order.
    recvs: Vec<Vec<Post>>,
}

impl FifoChannels {
    pub fn new(nranks: usize) -> Self {
        FifoChannels {
            recvs: vec![Vec::new(); nranks],
        }
    }

    /// A receive from `from`. Each receiver's come in its program order.
    pub fn recv(&mut self, from: Rank, post: Post) {
        self.recvs[from as usize].push(post);
    }

    /// Split the sends of rank `from`, in its program order, and the
    /// receives naming it (which this consumes) into channels, calling
    /// `visit` per channel either side posts on, in ascending `(to, tag)`
    /// order, until it returns an error.
    pub(crate) fn channels<E>(
        &mut self,
        from: Rank,
        sends: &mut [Post],
        mut visit: impl FnMut(Channel<'_>) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut recvs = std::mem::take(&mut self.recvs[from as usize]);
        // Stable: each channel stays in program order.
        let key = |p: &Post| (p.to, p.tag);
        sends.sort_by_key(key);
        recvs.sort_by_key(key);
        let (mut sends, mut recvs) = (&*sends, &*recvs);
        // The smaller head names the next channel; its posts are a prefix
        // of both remainders (one of them possibly empty).
        while let Some((to, tag)) = match (sends.first(), recvs.first()) {
            (Some(a), Some(b)) => Some(key(a).min(key(b))),
            (a, b) => a.or(b).map(key),
        } {
            let (s, r) = (split(&mut sends, to, tag), split(&mut recvs, to, tag));
            visit(Channel {
                to,
                tag,
                sends: s,
                recvs: r,
            })?;
        }
        Ok(())
    }

    /// Pair the sends of rank `from` with the receives naming it, calling
    /// `visit(to, send, recv)` per pair in ascending `(to, tag)` order. A
    /// channel whose counts or paired lengths differ is an error naming it,
    /// except that with `spare_recvs` its receives beyond its sends are
    /// left unpaired.
    pub fn pair(
        &mut self,
        from: Rank,
        sends: &mut [Post],
        spare_recvs: bool,
        mut visit: impl FnMut(Rank, &Post, &Post),
    ) -> Result<(), ValidationError> {
        self.channels(from, sends, |ch| {
            let (to, tag, s, mut r) = (ch.to, ch.tag, ch.sends, ch.recvs);
            if spare_recvs && r.len() > s.len() {
                r = &r[..s.len()];
            }
            if s.len() != r.len() {
                return Err(ValidationError::MatchFailure {
                    from,
                    to,
                    tag,
                    sends: s.len(),
                    recvs: r.len(),
                });
            }
            if let Some(index) = s.iter().zip(r).position(|(s, r)| s.len != r.len) {
                return Err(ValidationError::MatchLengthFailure {
                    from,
                    to,
                    tag,
                    index,
                    send_len: s[index].len,
                    recv_len: r[index].len,
                });
            }
            ch.pairs().for_each(|(s, r)| visit(to, s, r));
            Ok(())
        })
    }
}

/// Split the posts on `(to, tag)` off the front of `posts`.
fn split<'a>(posts: &mut &'a [Post], to: Rank, tag: u32) -> &'a [Post] {
    let (chan, rest) = posts.split_at(posts.partition_point(|p| (p.to, p.tag) == (to, tag)));
    *posts = rest;
    chan
}

#[cfg(test)]
mod tests {
    use super::*;

    fn post(to: Rank, tag: u32, id: u32, len: Bytes) -> Post {
        Post { to, tag, id, len }
    }

    /// Every pair rank 0's sends make, as `(to, send id, recv id)`.
    fn pairs(
        chans: &mut FifoChannels,
        sends: &mut [Post],
        spare: bool,
    ) -> Result<Vec<(Rank, u32, u32)>, ValidationError> {
        let mut out = Vec::new();
        chans.pair(0, sends, spare, |to, s, r| out.push((to, s.id, r.id)))?;
        Ok(out)
    }

    #[test]
    fn channels_ascend_and_the_kth_send_pairs_with_the_kth_receive() {
        let mut chans = FifoChannels::new(3);
        // Rank 2's receives from 0, then rank 1's: two on tag 5, one on 4.
        chans.recv(0, post(2, 0, 20, 8));
        chans.recv(0, post(1, 5, 10, 8));
        chans.recv(0, post(1, 4, 11, 16));
        chans.recv(0, post(1, 5, 12, 32));
        let mut sends = [
            post(1, 5, 0, 8),
            post(2, 0, 1, 8),
            post(1, 5, 2, 32),
            post(1, 4, 3, 16),
        ];
        let got = pairs(&mut chans, &mut sends, false).unwrap();
        assert_eq!(got, [(1, 3, 11), (1, 0, 10), (1, 2, 12), (2, 1, 20)]);
    }

    #[test]
    fn channels_hand_over_uneven_sides_and_pair_their_common_prefix() {
        let mut chans = FifoChannels::new(3);
        chans.recv(0, post(1, 7, 10, 8));
        chans.recv(0, post(2, 0, 20, 4));
        chans.recv(0, post(2, 0, 21, 4));
        let mut sends = [
            post(2, 0, 0, 16),
            post(1, 7, 1, 8),
            post(1, 7, 2, 8),
            post(1, 9, 3, 8),
        ];
        let mut seen = Vec::new();
        let walked = chans.channels(0, &mut sends, |ch| {
            let pairs: Vec<_> = ch.pairs().map(|(s, r)| (s.id, r.id)).collect();
            seen.push((ch.to, ch.tag, ch.sends.len(), ch.recvs.len(), pairs));
            Ok::<_, ()>(())
        });
        assert_eq!(walked, Ok(()));
        assert_eq!(
            seen,
            [
                (1, 7, 2, 1, vec![(1, 10)]),
                (1, 9, 1, 0, vec![]),
                (2, 0, 1, 2, vec![(0, 20)]),
            ]
        );
    }

    #[test]
    fn a_mismatch_names_its_channel_and_spare_receives_may_stay_unpaired() {
        let fresh = || {
            let mut chans = FifoChannels::new(2);
            chans.recv(0, post(1, 7, 10, 8));
            chans.recv(0, post(1, 7, 11, 8));
            chans
        };
        let mut one = [post(1, 7, 0, 8)];
        let short = ValidationError::MatchFailure {
            from: 0,
            to: 1,
            tag: 7,
            sends: 1,
            recvs: 2,
        };
        assert_eq!(pairs(&mut fresh(), &mut one, false), Err(short));
        assert_eq!(pairs(&mut fresh(), &mut one, true), Ok(vec![(1, 0, 10)]));
        let mut three = [post(1, 7, 0, 8), post(1, 7, 1, 8), post(1, 7, 2, 8)];
        let err = pairs(&mut fresh(), &mut three, true).unwrap_err();
        assert!(matches!(
            err,
            ValidationError::MatchFailure { sends: 3, .. }
        ));
        let mut wrong = [post(1, 7, 0, 8), post(1, 7, 1, 16)];
        let err = pairs(&mut fresh(), &mut wrong, false).unwrap_err();
        assert!(matches!(
            err,
            ValidationError::MatchLengthFailure {
                index: 1,
                send_len: 16,
                recv_len: 8,
                ..
            }
        ));
    }
}
