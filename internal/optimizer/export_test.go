package optimizer

// GroupBytes is the conversion group budget.
const GroupBytes = groupBytes

// SetGroupBytes shrinks the group budget, so a test crosses it with a
// table of kilobytes.
func (o *Optimizer) SetGroupBytes(n int64) { o.groupBytes = n }
