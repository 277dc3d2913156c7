package lattice

// NearestD8 exposes the coset decoder DecodeE8 is built from to the
// external fuzz targets.
var NearestD8 = nearestD8
