package mem

// Footprint returns the number of bytes handed out so far.
func (m *Memory) Footprint() uint64 { return m.limit - base }
