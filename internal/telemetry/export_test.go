package telemetry

// MaxSlots is a lane's slab size, for the external tests.
const MaxSlots = maxSlots

// SlotsUsed is how many slab slots r's metrics take.
func SlotsUsed(r *Registry) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return int(r.nextSlot)
}
