package dsnaudit

// DriveRounds is the reference driver (driveRounds) for the external test
// package, where it is the oracle of matchSequential and
// TestVerifierParityRandomized.
var DriveRounds = driveRounds
