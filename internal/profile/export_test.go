package profile

// FromDataFloor and Collector.FinishFloor are FromData and Finish with
// rankCounts' work floor as a parameter, for the external tests that force
// one worker or several over the shared corpus.
var FromDataFloor = fromData

func (c *Collector) FinishFloor(floor int) (*FunctionProfile, error) { return c.finish(floor) }
