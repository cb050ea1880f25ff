//! Versioned documents: one descriptor per format checks every marker
//! and version.

use crate::json::{Json, JsonError};
use std::fmt;

/// A versioned JSON document format. Every document lazylocks persists
/// (trace artifacts, checkpoints, profile documents, metrics and profile
/// snapshots, fuzz reports) opens with a `"format"` marker and an integer
/// version under `version_key`; this descriptor writes and checks both.
///
/// ## Versioning policy
///
/// Writers always emit the current `version`. Readers accept any version
/// `<=` their own and reject newer ones with [`DocError::Version`].
/// Adding an optional field is a non-breaking change (readers default
/// it when absent); removing or re-typing a field bumps the version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DocFormat {
    /// The `"format"` marker.
    pub name: &'static str,
    /// The key holding the integer version.
    pub version_key: &'static str,
    /// The version this tool writes and the newest it reads.
    pub version: u64,
}

impl DocFormat {
    /// The document object: marker, version, then `fields` in order.
    pub fn wrap(&self, fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::obj(
            [
                ("format", Json::Str(self.name.to_string())),
                (self.version_key, Json::Int(i128::from(self.version))),
            ]
            .into_iter()
            .chain(fields),
        )
    }

    /// Checks `doc`'s marker and version, returning it for field access.
    pub fn open<'a>(&self, doc: &'a Json) -> Result<&'a Json, DocError> {
        if doc.get("format").and_then(Json::as_str) != Some(self.name) {
            return Err(DocError::schema(
                "format",
                format!("missing or wrong format marker (want {:?})", self.name),
            ));
        }
        let found = require(doc, self.version_key, Json::as_u64)?;
        if found > self.version {
            return Err(DocError::Version {
                format: self.name,
                found,
                supported: self.version,
            });
        }
        Ok(doc)
    }
}

/// The value of `v[field]` through `accessor`; a [`DocError::Schema`]
/// naming the field when it is missing or of the wrong type.
pub fn require<'a, T>(
    v: &'a Json,
    field: &'static str,
    accessor: impl Fn(&'a Json) -> Option<T>,
) -> Result<T, DocError> {
    v.get(field)
        .and_then(accessor)
        .ok_or_else(|| DocError::schema(field, "missing or wrong type"))
}

/// Why a document could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DocError {
    /// The text is not well-formed JSON.
    Json(JsonError),
    /// The JSON does not match the document schema.
    Schema {
        /// The offending field.
        field: &'static str,
        /// What is wrong with it.
        message: String,
    },
    /// The document was written by a newer tool.
    Version {
        /// The document's format marker.
        format: &'static str,
        /// The version the document declares.
        found: u64,
        /// The newest version this tool reads.
        supported: u64,
    },
}

impl DocError {
    /// A schema error naming `field`.
    pub fn schema(field: &'static str, message: impl Into<String>) -> DocError {
        DocError::Schema {
            field,
            message: message.into(),
        }
    }
}

impl fmt::Display for DocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DocError::Json(e) => write!(f, "{e}"),
            DocError::Schema { field, message } => {
                write!(f, "document field {field:?}: {message}")
            }
            DocError::Version {
                format,
                found,
                supported,
            } => write!(
                f,
                "{format} format version {found} is newer than this tool's {supported}"
            ),
        }
    }
}

impl std::error::Error for DocError {}

impl From<JsonError> for DocError {
    fn from(e: JsonError) -> Self {
        DocError::Json(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FMT: DocFormat = DocFormat {
        name: "lazylocks-test",
        version_key: "format_version",
        version: 2,
    };

    #[test]
    fn wrap_then_open_round_trips() {
        let doc = FMT.wrap([("x", Json::Int(1))]);
        assert_eq!(
            doc.encode(),
            "{\"format\":\"lazylocks-test\",\"format_version\":2,\"x\":1}"
        );
        assert_eq!(FMT.open(&doc).unwrap(), &doc);
        let older = DocFormat { version: 1, ..FMT }.wrap([]);
        assert!(FMT.open(&older).is_ok(), "older versions are accepted");
    }

    #[test]
    fn open_rejects_wrong_markers_and_newer_versions() {
        let other = DocFormat {
            name: "other",
            ..FMT
        };
        let err = FMT.open(&other.wrap([])).unwrap_err();
        assert!(matches!(
            err,
            DocError::Schema {
                field: "format",
                ..
            }
        ));
        let newer = DocFormat { version: 3, ..FMT }.wrap([]);
        let err = FMT.open(&newer).unwrap_err();
        assert_eq!(
            err,
            DocError::Version {
                format: "lazylocks-test",
                found: 3,
                supported: 2
            }
        );
        assert!(err.to_string().contains("newer"), "{err}");
        let unversioned = Json::obj([("format", Json::Str("lazylocks-test".into()))]);
        let err = FMT.open(&unversioned).unwrap_err();
        assert!(matches!(
            err,
            DocError::Schema {
                field: "format_version",
                ..
            }
        ));
    }
}
