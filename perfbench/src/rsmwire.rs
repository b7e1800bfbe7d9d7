//! A wire carrier for the RSM's messages.
//!
//! `RsmMsg` has no codec, so it cannot cross `TcpRuntime` as is. This
//! newtype encodes it as a 1-byte variant tag followed by the existing
//! public encodings of `GwtsMsg<Cmd>`, `Cmd` and `ValueSet<Cmd>`;
//! `kind` and `wire_size` delegate to `RsmMsg`, so modeled accounting
//! is the same as under the simulator.

use bgla_codec::{CodecError, Reader, Wire, Writer};
use bgla_rsm::RsmMsg;
use bgla_simnet::{ProofSizes, WireMessage};

/// `RsmMsg` with a codec.
#[derive(Debug, Clone)]
pub struct RsmWire(pub RsmMsg);

impl From<RsmMsg> for RsmWire {
    fn from(m: RsmMsg) -> Self {
        RsmWire(m)
    }
}

impl From<RsmWire> for RsmMsg {
    fn from(m: RsmWire) -> Self {
        m.0
    }
}

impl WireMessage for RsmWire {
    fn kind(&self) -> &'static str {
        self.0.kind()
    }
    fn wire_size(&self) -> usize {
        self.0.wire_size()
    }
    fn proof_sizes(&self) -> ProofSizes {
        self.0.proof_sizes()
    }
}

impl Wire for RsmWire {
    fn encode(&self, w: &mut Writer) {
        match &self.0 {
            RsmMsg::Gwts(g) => {
                w.u8(0);
                g.encode(w);
            }
            RsmMsg::NewValue(c) => {
                w.u8(1);
                c.encode(w);
            }
            RsmMsg::Decide(s) => {
                w.u8(2);
                s.encode(w);
            }
            RsmMsg::CnfReq(s) => {
                w.u8(3);
                s.encode(w);
            }
            RsmMsg::CnfRep(s) => {
                w.u8(4);
                s.encode(w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(RsmWire(match r.u8()? {
            0 => RsmMsg::Gwts(Wire::decode(r)?),
            1 => RsmMsg::NewValue(Wire::decode(r)?),
            2 => RsmMsg::Decide(Wire::decode(r)?),
            3 => RsmMsg::CnfReq(Wire::decode(r)?),
            4 => RsmMsg::CnfRep(Wire::decode(r)?),
            _ => return Err(CodecError::Invalid("rsm msg tag")),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgla_codec::{decode_payload, encode_payload};
    use bgla_core::ValueSet;
    use bgla_rsm::{Cmd, Op};

    #[test]
    fn every_variant_round_trips() {
        let cmd = Cmd::new(3, 9, Op::Add(5));
        let set: ValueSet<Cmd> = [cmd.clone(), Cmd::nop(4, 1)].into_iter().collect();
        for m in [
            RsmMsg::NewValue(cmd),
            RsmMsg::Decide(set.clone()),
            RsmMsg::CnfReq(set.clone()),
            RsmMsg::CnfRep(set),
        ] {
            let bytes = encode_payload(&RsmWire(m.clone()));
            let back: RsmWire = decode_payload(&bytes).expect("decodes");
            assert_eq!(format!("{:?}", back.0), format!("{m:?}"));
        }
        assert!(decode_payload::<RsmWire>(&[9]).is_err());
    }
}
