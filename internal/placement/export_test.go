package placement

// The internals the external tests of this package reach: they live in
// package placement_test so that they may import the scheduler, which
// imports this package.

// OracleAssignFreeSlots is the fresh-memory oracle of AssignFreeSlots.
var OracleAssignFreeSlots = oracleAssignFreeSlots
