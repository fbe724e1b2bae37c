package sim

// IdleCoros gives the external tests in this directory the length of
// the coroutine idle list.
var IdleCoros = idleCoros
