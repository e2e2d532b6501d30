package noc

// TypeFor returns the flit type for position seq within a packet of length n.
func TypeFor(seq, n int) FlitType {
	switch {
	case n == 1:
		return HeadTailFlit
	case seq == 0:
		return HeadFlit
	case seq == n-1:
		return TailFlit
	default:
		return BodyFlit
	}
}

// DataFlits decomposes a packet into its data flits in sequence order. The
// virtual-channel and wormhole baselines use the Type field on the wire;
// the flit-reservation network ignores it.
func DataFlits(p *Packet) []DataFlit {
	return AppendDataFlits(nil, p)
}

// AppendDataFlits is DataFlits building into dst[:0], reusing dst's array,
// so a source that packetizes one packet after another allocates only as
// it grows.
func AppendDataFlits(dst []DataFlit, p *Packet) []DataFlit {
	if p.Len < 1 {
		panic("noc: packet must contain at least one data flit")
	}
	if cap(dst) < p.Len {
		dst = make([]DataFlit, 0, p.Len)
	}
	dst = dst[:0]
	for i := 0; i < p.Len; i++ {
		dst = append(dst, DataFlit{Packet: p, Seq: i, Attempt: p.Attempts, Type: TypeFor(i, p.Len)})
	}
	return dst
}

// ControlFlits builds the control-flit sequence for a packet under
// flit-reservation flow control, with each control flit leading up to d data
// flits (d=1 in the paper's measured configurations; Section 5 discusses
// wider control flits). The head flit carries the destination and leads the
// first min(d, Len) data flits; each subsequent body flit leads the next d.
// Arrival times are left zero; the source's injection scheduler fills them.
func ControlFlits(p *Packet, d int) []ControlFlit {
	return AppendControlFlits(nil, p, d)
}

// AppendControlFlits is ControlFlits building into dst[:0], reusing both
// dst's array and the lead arrays of the flits it held before, so a caller
// that packetizes one packet after another allocates only as it grows.
func AppendControlFlits(dst []ControlFlit, p *Packet, d int) []ControlFlit {
	if d < 1 {
		panic("noc: control flit must lead at least one data flit")
	}
	if p.Len < 1 {
		panic("noc: packet must contain at least one data flit")
	}
	n := (p.Len + d - 1) / d // number of control flits
	if cap(dst) < n {
		dst = append(dst[:cap(dst)], make([]ControlFlit, n-cap(dst))...)
	}
	dst = dst[:n]
	for i := range dst {
		lo := i * d
		hi := lo + d
		if hi > p.Len {
			hi = p.Len
		}
		leads := dst[i].Leads[:0]
		if leads == nil {
			leads = make([]LeadEntry, 0, hi-lo)
		}
		for seq := lo; seq < hi; seq++ {
			leads = append(leads, LeadEntry{Seq: seq})
		}
		cf := ControlFlit{Packet: p, Type: TypeFor(i, n), Attempt: p.Attempts, Leads: leads}
		if cf.Type.IsHead() {
			cf.Dst = p.Dst
		}
		dst[i] = cf
	}
	return dst
}
