package sim

// LoadResetMark is LoadResetMarkP on filter plane 0.
func (c *Ctx) LoadResetMark(addr, gran uint64) uint64 { return c.LoadResetMarkP(0, addr, gran) }
