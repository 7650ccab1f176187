package client

// BlockRows is blockRows for the package's external tests.
var BlockRows = blockRows
